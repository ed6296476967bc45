package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// deltaTestGraph builds a labeled multigraph with parallel edges; every
// vertex carries a city drawn from a fixed pool (string sort keys).
func deltaTestGraph(nv, ne int, rng *rand.Rand) *storage.Graph {
	g := storage.NewGraph()
	cities := []string{"ams", "bos", "car", "den"}
	for i := 0; i < nv; i++ {
		var v storage.VertexID
		if i%2 == 0 {
			v = g.AddVertex("A")
		} else {
			v = g.AddVertex("B")
		}
		if err := g.SetVertexProp(v, "city", storage.Str(cities[rng.Intn(len(cities))])); err != nil {
			panic(err)
		}
	}
	labels := []string{"X", "Y"}
	for i := 0; i < ne; i++ {
		src := storage.VertexID(rng.Intn(nv))
		dst := storage.VertexID(rng.Intn(nv))
		if _, err := g.AddEdge(src, dst, labels[rng.Intn(len(labels))]); err != nil {
			panic(err)
		}
	}
	return g
}

// applyRandomOps drives a DeltaBuilder with a mix of inserts (including to
// brand-new vertices) and deletes (of base and of delta edges), mirroring
// every op on the builder's graph clone.
func applyRandomOps(b *DeltaBuilder, g *storage.Graph, ops int, rng *rand.Rand) {
	labels := []string{"X", "Y"}
	for i := 0; i < ops; i++ {
		switch {
		case rng.Intn(4) == 0 && g.NumEdges() > 0:
			e := storage.EdgeID(rng.Intn(g.NumEdges()))
			b.Delete(e)
		default:
			nv := g.NumVertices()
			if rng.Intn(8) == 0 {
				g.AddVertex("A") // a vertex the base CSR has no owner slot for
				nv++
			}
			src := storage.VertexID(rng.Intn(nv))
			dst := storage.VertexID(rng.Intn(nv))
			e, err := g.AddEdge(src, dst, labels[rng.Intn(len(labels))])
			if err != nil {
				panic(err)
			}
			b.Insert(e)
		}
	}
}

// spliceAll fetches (dir, owner, codes) through the delta overlay exactly
// the way the executor does.
func spliceAll(p *Primary, d *Delta, dir Direction, v storage.VertexID, codes []uint16) ([]uint32, []uint64) {
	base := p.List(dir, v, codes)
	if !d.Touches(dir, uint32(v)) {
		return base.Materialize()
	}
	return d.Splice(p, dir, uint32(v), codes, base, nil, nil)
}

// TestDeltaSpliceMatchesRebuild checks the core overlay invariant: for
// every owner, direction, and bucket prefix, splicing the delta into the
// frozen base yields entry-for-entry the list a full rebuild over the same
// final state produces, and SpliceLen agrees with the materialized length.
func TestDeltaSpliceMatchesRebuild(t *testing.T) {
	for _, cfg := range []struct {
		name string
		c    Config
	}{
		{"default", DefaultConfig()},
		{"two-level", Config{Partitions: []PartitionKey{
			{Var: pred.VarAdj, Prop: pred.PropLabel},
			{Var: pred.VarNbr, Prop: pred.PropLabel},
		}}},
		{"nbr-label-sorted", Config{
			Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}},
			Sorts:      []SortKey{{Var: pred.VarNbr, Prop: pred.PropLabel}},
		}},
		// String-property sort: delta ordinals must come from the frozen
		// base's dictionary rank space (vertices added by the batch have a
		// NULL city, which sorts last in every space).
		{"nbr-city-sorted", Config{
			Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}},
			Sorts:      []SortKey{{Var: pred.VarNbr, Prop: "city"}},
		}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			g := deltaTestGraph(40, 160, rng)
			s, err := NewStore(g, cfg.c)
			if err != nil {
				t.Fatal(err)
			}
			g2 := g.Clone()
			b := NewDeltaBuilder(NewDelta(), s.Primary(), g2)
			applyRandomOps(b, g2, 120, rng)
			if b.Impossible() {
				t.Fatal("ops unexpectedly unbufferable")
			}
			d := b.Freeze()

			// Reference: rebuild from the final state.
			gRef := g2.Clone()
			gRef.ApplyTombstones(d.DeletedEdges())
			ref, err := NewStore(gRef, cfg.c)
			if err != nil {
				t.Fatal(err)
			}

			var prefixes [][]uint16
			prefixes = append(prefixes, nil)
			cards := s.Primary().LevelCards()
			for c := 0; c < cards[0]; c++ {
				prefixes = append(prefixes, []uint16{uint16(c)})
			}
			for _, dir := range []Direction{FW, BW} {
				for v := 0; v < g2.NumVertices(); v++ {
					for _, codes := range prefixes {
						gotN, gotE := spliceAll(s.Primary(), d, dir, storage.VertexID(v), codes)
						wantN, wantE := ref.Primary().List(dir, storage.VertexID(v), codes).Materialize()
						key := fmt.Sprintf("dir=%v v=%d codes=%v", dir, v, codes)
						if len(gotN) != len(wantN) {
							t.Fatalf("%s: len %d want %d", key, len(gotN), len(wantN))
						}
						baseLen := s.Primary().List(dir, storage.VertexID(v), codes).Len()
						if sl := d.SpliceLen(dir, uint32(v), codes, baseLen); sl != len(wantN) {
							t.Fatalf("%s: SpliceLen %d want %d", key, sl, len(wantN))
						}
						for i := range gotN {
							if gotN[i] != wantN[i] || gotE[i] != wantE[i] {
								t.Fatalf("%s: entry %d (%d,%d) want (%d,%d)",
									key, i, gotN[i], gotE[i], wantN[i], wantE[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestDeltaImpossibleOnNewCategorical pins the fallback contract: an edge
// whose label the base partition levels have never seen cannot be buffered
// and must flip the builder to Impossible.
func TestDeltaImpossibleOnNewCategorical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := deltaTestGraph(16, 40, rng)
	s, err := NewStore(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	b := NewDeltaBuilder(NewDelta(), s.Primary(), g2)
	e, err := g2.AddEdge(0, 1, "BrandNewLabel")
	if err != nil {
		t.Fatal(err)
	}
	b.Insert(e)
	if !b.Impossible() {
		t.Fatal("insert with unknown categorical value must be unbufferable")
	}
}

// TestDeltaBuilderPreservesParent checks the copy-on-write contract: a
// successor builder must not disturb the published parent overlay.
func TestDeltaBuilderPreservesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := deltaTestGraph(24, 80, rng)
	s, err := NewStore(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	b1 := NewDeltaBuilder(NewDelta(), s.Primary(), g2)
	applyRandomOps(b1, g2, 40, rng)
	d1 := b1.Freeze()

	// Record d1's view of every list.
	type snap struct{ n []uint32 }
	before := map[string][]uint32{}
	for _, dir := range []Direction{FW, BW} {
		for v := 0; v < g2.NumVertices(); v++ {
			n, _ := spliceAll(s.Primary(), d1, dir, storage.VertexID(v), nil)
			before[fmt.Sprintf("%v/%d", dir, v)] = append([]uint32(nil), n...)
		}
	}
	_ = snap{}

	g3 := g2.Clone()
	b2 := NewDeltaBuilder(d1, s.Primary(), g3)
	applyRandomOps(b2, g3, 40, rng)
	b2.Freeze()

	for _, dir := range []Direction{FW, BW} {
		for v := 0; v < g2.NumVertices(); v++ {
			n, _ := spliceAll(s.Primary(), d1, dir, storage.VertexID(v), nil)
			want := before[fmt.Sprintf("%v/%d", dir, v)]
			if len(n) != len(want) {
				t.Fatalf("dir=%v v=%d: parent overlay changed: len %d want %d", dir, v, len(n), len(want))
			}
			for i := range n {
				if n[i] != want[i] {
					t.Fatalf("dir=%v v=%d: parent overlay changed at %d", dir, v, i)
				}
			}
		}
	}
}

// deltaView is everything a published Delta answers, recorded so a later
// check can prove the Delta was not disturbed.
type deltaView struct {
	touches   []bool
	spliceLen []int
	splices   [][]uint64 // nbr<<32 | eid per entry, touched lists only
	deleted   []bool
	delList   []storage.EdgeID
	pending   int
	dirty     int
}

func observeDelta(p *Primary, d *Delta, nv, ne int, prefixes [][]uint16) deltaView {
	var o deltaView
	for _, dir := range []Direction{FW, BW} {
		for v := 0; v < nv; v++ {
			o.touches = append(o.touches, d.Touches(dir, uint32(v)))
			for _, codes := range prefixes {
				base := p.List(dir, storage.VertexID(v), codes)
				o.spliceLen = append(o.spliceLen, d.SpliceLen(dir, uint32(v), codes, base.Len()))
				if !d.Touches(dir, uint32(v)) {
					continue
				}
				nbrs, eids := d.Splice(p, dir, uint32(v), codes, base, nil, nil)
				l := make([]uint64, len(nbrs))
				for i := range nbrs {
					l[i] = uint64(nbrs[i])<<32 | eids[i]
				}
				o.splices = append(o.splices, l)
			}
		}
	}
	for e := 0; e < ne; e++ {
		o.deleted = append(o.deleted, d.EdgeDeleted(storage.EdgeID(e)))
	}
	o.delList = d.DeletedEdges()
	o.pending, o.dirty = d.Pending(), d.DirtyOwners()
	return o
}

// TestDeltaBuilderLeavesParentIntact drives a chain of commits, each a
// random mix of inserts, deletes of base and delta edges, and deletes that
// empty a whole run, and checks after every Freeze that each earlier Delta
// still answers exactly what it answered when it was published. The base
// has 128 vertices (two full owner chunks) and ~4K edges (just under one
// delete-set chunk), so the chain writes inside one chunk, across chunk
// boundaries, to owners past the parent's last chunk (vertices the same
// batch adds) and to edge IDs past the delete set's last chunk.
func TestDeltaBuilderLeavesParentIntact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := deltaTestGraph(2*ownerChunkSize, 1<<edgeChunkShift-40, rng)
	cfg := Config{Partitions: []PartitionKey{
		{Var: pred.VarAdj, Prop: pred.PropLabel},
		{Var: pred.VarNbr, Prop: pred.PropLabel},
	}}
	s, err := NewStore(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Primary()
	prefixes := [][]uint16{nil, {0}, {1}}
	labels := []string{"X", "Y"}

	type published struct {
		d      *Delta
		nv, ne int
		view   deltaView
	}
	var chain []published
	var d *Delta
	var deltaEdges []storage.EdgeID // live edges inserted by the chain
	for step := 0; step < 24; step++ {
		g = g.Clone()
		b := NewDeltaBuilder(d, p, g)
		insert := func(src, dst storage.VertexID) storage.EdgeID {
			e, err := g.AddEdge(src, dst, labels[rng.Intn(len(labels))])
			if err != nil {
				t.Fatal(err)
			}
			b.Insert(e)
			deltaEdges = append(deltaEdges, e)
			return e
		}
		deleteDelta := func(i int) {
			b.Delete(deltaEdges[i])
			deltaEdges = append(deltaEdges[:i], deltaEdges[i+1:]...)
		}
		for op := 0; op < 10+rng.Intn(40); op++ {
			nv := g.NumVertices()
			switch k := rng.Intn(10); {
			case k < 3: // both endpoints inside owner chunk 0
				insert(storage.VertexID(rng.Intn(ownerChunkSize)), storage.VertexID(rng.Intn(ownerChunkSize)))
			case k < 5: // anywhere, across chunk boundaries
				insert(storage.VertexID(rng.Intn(nv)), storage.VertexID(rng.Intn(nv)))
			case k == 5: // a vertex past the parent's last chunk, its run
				// emptied again in the same batch half the time
				v := g.AddVertex("A")
				insert(v, storage.VertexID(rng.Intn(nv)))
				if rng.Intn(2) == 0 {
					deleteDelta(len(deltaEdges) - 1)
				}
			case k < 8: // a base edge
				b.Delete(storage.EdgeID(rng.Intn(int(p.EdgeBound()))))
			default: // a delta edge from this or an earlier batch
				if len(deltaEdges) > 0 {
					deleteDelta(rng.Intn(len(deltaEdges)))
				}
			}
		}
		if b.Impossible() {
			t.Fatal("ops unexpectedly unbufferable")
		}
		d = b.Freeze()
		for i, pub := range chain {
			if got := observeDelta(p, pub.d, pub.nv, pub.ne, prefixes); !reflect.DeepEqual(got, pub.view) {
				t.Fatalf("step %d: delta published at step %d changed", step, i)
			}
		}
		nv, ne := g.NumVertices()+ownerChunkSize, g.NumEdges()+1<<edgeChunkShift
		chain = append(chain, published{d, nv, ne, observeDelta(p, d, nv, ne, prefixes)})
	}
	dl := chain[len(chain)-1].view.delList
	if len(dl) == 0 || dl[len(dl)-1] < 1<<edgeChunkShift {
		t.Fatal("chain never deleted an edge past the first delete-set chunk")
	}
	if !sort.SliceIsSorted(dl, func(i, j int) bool { return dl[i] < dl[j] }) {
		t.Fatal("DeletedEdges is not ascending")
	}
}
