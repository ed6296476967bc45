package index

import (
	"testing"
	"unsafe"

	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/storage"
)

func TestAdjListDirectAndDecodeInto(t *testing.T) {
	nbrs := []uint32{2, 5, 5, 9}
	eids := []uint64{10, 11, 12, 13}
	l := DirectList(nbrs, eids)

	dn, de, ok := l.Direct()
	if !ok {
		t.Fatal("direct list must report Direct")
	}
	if &dn[0] != &nbrs[0] || &de[0] != &eids[0] {
		t.Error("Direct must alias the underlying arrays (zero copy)")
	}

	// DecodeInto on a direct list copies; reuse must not grow the buffer.
	buf32 := make([]uint32, 0, 8)
	buf64 := make([]uint64, 0, 8)
	gotN, gotE := l.DecodeInto(buf32, buf64)
	for i := range nbrs {
		if gotN[i] != nbrs[i] || gotE[i] != eids[i] {
			t.Fatalf("DecodeInto mismatch at %d", i)
		}
	}
	if cap(gotN) != 8 {
		t.Error("DecodeInto should reuse provided capacity")
	}
}

func TestAdjListDecodeIntoOffsets(t *testing.T) {
	// Secondary offset list over a primary range: offsets {3, 1, 0}.
	base := []uint32{100, 101, 102, 103}
	baseE := []uint64{200, 201, 202, 203}
	b := csr.NewOffsetBuilder(1, nil)
	for _, off := range []uint32{0, 1, 3} {
		b.Add(csr.OffsetEntry{Owner: 0, Offset: off}, nil)
	}
	o := b.Build(func(uint32) uint32 { return 4 })
	var l AdjList
	l.setOffset(o.OwnerList(0), base, baseE)

	if _, _, ok := l.Direct(); ok {
		t.Fatal("offset list must not report Direct")
	}
	gotN, gotE := l.DecodeInto(nil, nil)
	wantN := []uint32{100, 101, 103}
	wantE := []uint64{200, 201, 203}
	if len(gotN) != len(wantN) {
		t.Fatalf("len = %d, want %d", len(gotN), len(wantN))
	}
	for i := range wantN {
		if gotN[i] != wantN[i] || gotE[i] != wantE[i] {
			t.Fatalf("decoded[%d] = (%d, %d), want (%d, %d)", i, gotN[i], gotE[i], wantN[i], wantE[i])
		}
		if v, e := l.Get(i); v != storage.VertexID(gotN[i]) || e != storage.EdgeID(gotE[i]) {
			t.Fatalf("DecodeInto disagrees with Get at %d", i)
		}
	}
}

// TestAdjListSize guards the descriptor's layout. Any by-value use of an
// AdjList (a return, an argument, a value receiver called through a
// pointer) copies the whole struct; at 120 B that copy (runtime.duffcopy)
// was 27 % of the embedded-join workload's CPU on a 2-core x86-64 box with
// go1.24. Executors fetch into a slot and read it through a pointer, but
// the descriptor must stay small regardless.
func TestAdjListSize(t *testing.T) {
	if got := unsafe.Sizeof(AdjList{}); got > 80 {
		t.Errorf("unsafe.Sizeof(AdjList{}) = %d B, want <= 80", got)
	}
}
