package exec

// Zero-allocation regression tests for the block-decoded execution core:
// once a Runtime is warm (pipeline compiled, scratch buffers grown), a
// steady-state Count must perform no heap allocations at all — which in
// particular pins the contract of 0 allocs per tuple for every operator on
// both direct (primary) and offset-list (secondary) inputs.

import (
	"testing"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// allocGraph builds a small dense graph with parallel edges so duplicate
// runs and multi-entry intersections are exercised.
func allocGraph(t testing.TB) *storage.Graph {
	t.Helper()
	g := storage.NewGraph()
	g.AddVertices(32, "A")
	for v := 0; v < 32; v++ {
		for d := 1; d <= 3; d++ {
			w := (v + d) % 32
			if _, err := g.AddEdge(storage.VertexID(v), storage.VertexID(w), "W"); err != nil {
				t.Fatal(err)
			}
			if _, err := g.AddEdge(storage.VertexID(w), storage.VertexID(v), "W"); err != nil {
				t.Fatal(err)
			}
		}
		// A parallel edge to make duplicate-run handling part of the loop.
		if _, err := g.AddEdge(storage.VertexID(v), storage.VertexID((v+1)%32), "W"); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func allocStore(t testing.TB) *index.Store {
	t.Helper()
	s, err := index.NewStore(allocGraph(t), index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertZeroAlloc warms the runtime once and then requires exactly zero
// allocations per Count.
func assertZeroAlloc(t *testing.T, rt *Runtime, plan *Plan) {
	t.Helper()
	want := plan.Count(rt) // warm: compile pipeline, grow scratch
	if want == 0 {
		t.Fatal("degenerate zero-alloc test: no matches")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if got := plan.Count(rt); got != want {
			t.Fatalf("count changed across runs: %d vs %d", got, want)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Count allocated %.1f times per run, want 0", allocs)
	}
}

// vpNbrSorted builds a secondary vertex-partitioned view (offset lists) in
// neighbour-ID order, so its lists are intersectable with primary lists.
func vpNbrSorted(t *testing.T, s *index.Store, dirs ...index.Direction) *index.VertexPartitioned {
	t.Helper()
	vp, err := s.CreateVertexPartitioned(index.VPDef{
		View: index.View1Hop{Name: "VPn"},
		Dirs: dirs,
		Cfg:  index.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return vp
}

func TestZeroAllocExtendDirect(t *testing.T) {
	rt := NewRuntime(allocStore(t))
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

func TestZeroAllocExtendOffset(t *testing.T) {
	s := allocStore(t)
	vp := vpNbrSorted(t, s, index.FW)
	rt := NewRuntime(s)
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

func TestZeroAllocIntersect2WayDirect(t *testing.T) {
	rt := NewRuntime(allocStore(t))
	// Triangle: scan a0, extend a1, intersect FW(a1) ∩ BW(a0).
	plan := &Plan{
		NumV: 3, NumE: 3,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
				{Kind: ListPrimary, Dir: index.BW, OwnerVertexSlot: 0, EdgeSlot: 2},
			}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

func TestZeroAllocIntersect3WayDirect(t *testing.T) {
	rt := NewRuntime(allocStore(t))
	// Diamond closing: a3 in FW(a0) ∩ FW(a1) ∩ FW(a2).
	plan := &Plan{
		NumV: 4, NumE: 5,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
			}},
			&ExtendIntersectOp{TargetSlot: 3, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 2},
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 3},
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 2, EdgeSlot: 4},
			}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

func TestZeroAllocIntersect2WayOffset(t *testing.T) {
	s := allocStore(t)
	vp := vpNbrSorted(t, s, index.FW, index.BW)
	rt := NewRuntime(s)
	// Same triangle, but both intersected lists come from byte-packed
	// offset lists that must be block-decoded into scratch buffers.
	plan := &Plan{
		NumV: 3, NumE: 3,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
				{Kind: ListVP, VP: vp, Dir: index.BW, OwnerVertexSlot: 0, EdgeSlot: 2},
			}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

func TestZeroAllocIntersect3WayMixed(t *testing.T) {
	s := allocStore(t)
	vp := vpNbrSorted(t, s, index.FW)
	rt := NewRuntime(s)
	// 3-way intersection mixing direct and offset-list inputs.
	plan := &Plan{
		NumV: 4, NumE: 5,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
			}},
			&ExtendIntersectOp{TargetSlot: 3, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 2},
				{Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 3},
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 2, EdgeSlot: 4},
			}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

func TestZeroAllocMultiExtend(t *testing.T) {
	s, err := index.NewStore(storage.ExampleGraph(), index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vp, err := s.CreateVertexPartitioned(index.VPDef{
		View: index.View1Hop{Name: "VPc"},
		Dirs: []index.Direction{index.FW, index.BW},
		Cfg: index.Config{
			Partitions: index.DefaultConfig().Partitions,
			Sorts:      []index.SortKey{{Var: pred.VarNbr, Prop: storage.PropCity}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(s)
	cityKey := index.SortKey{Var: pred.VarNbr, Prop: storage.PropCity}
	// Same-city join over offset lists sorted on the neighbour's city.
	plan := &Plan{
		NumV: 3, NumE: 2,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&MultiExtendOp{Key: cityKey, Groups: []MEGroup{
				{TargetSlot: 1, Lists: []ListRef{{Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0, Expand: ExpandChoices(nil, vp.LevelCards(index.FW))}}},
				{TargetSlot: 2, Lists: []ListRef{{Kind: ListVP, VP: vp, Dir: index.BW, OwnerVertexSlot: 0, EdgeSlot: 1, Expand: ExpandChoices(nil, vp.LevelCards(index.BW))}}},
			}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

func TestZeroAllocSegmentFetch(t *testing.T) {
	s, err := index.NewStore(storage.ExampleGraph(), index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vp, err := s.CreateVertexPartitioned(index.VPDef{
		View: index.View1Hop{Name: "VPt"},
		Dirs: []index.Direction{index.FW},
		Cfg: index.Config{
			Partitions: index.DefaultConfig().Partitions,
			Sorts:      []index.SortKey{{Var: pred.VarAdj, Prop: storage.PropDate}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(s)
	key := index.SortKey{Var: pred.VarAdj, Prop: storage.PropDate}
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{{
				Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
				Seg:    &Segment{Key: key, Bounds: []Bound{{Op: pred.LE, Value: storage.Int(10)}}},
				Expand: ExpandChoices(nil, vp.LevelCards(index.FW)),
			}}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

// TestZeroAllocDisarmedTrace pins the tracing contract: after a traced
// execution (EXPLAIN ANALYZE) on the same warm runtime, disarming the
// tracer restores the allocation-free steady state — the disarmed path is
// one pointer test per step, nothing retained, nothing allocated.
func TestZeroAllocDisarmedTrace(t *testing.T) {
	rt := NewRuntime(allocStore(t))
	plan := &Plan{
		NumV: 3, NumE: 3,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
				{Kind: ListPrimary, Dir: index.BW, OwnerVertexSlot: 0, EdgeSlot: 2},
			}},
		},
	}
	rt.Trace = &Trace{}
	traced := plan.Count(rt)
	if traced == 0 {
		t.Fatal("degenerate test: no matches")
	}
	rt.Trace = nil
	assertZeroAlloc(t, rt, plan)
}

// deltaRuntime builds a runtime pinned to a snapshot-style state with a
// non-empty delta overlay: fresh edges buffered across many owners plus a
// few deletes of base edges, over the frozen allocStore base. This is the
// shape every fetch must splice through.
func deltaRuntime(t *testing.T) *Runtime {
	t.Helper()
	g := allocGraph(t)
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	b := index.NewDeltaBuilder(index.NewDelta(), s.Primary(), g2)
	for v := 0; v < 32; v += 2 {
		e, err := g2.AddEdge(storage.VertexID(v), storage.VertexID((v+5)%32), "W")
		if err != nil {
			t.Fatal(err)
		}
		b.Insert(e)
		// A parallel delta edge, so spliced duplicate runs are exercised.
		e2, err := g2.AddEdge(storage.VertexID(v), storage.VertexID((v+5)%32), "W")
		if err != nil {
			t.Fatal(err)
		}
		b.Insert(e2)
	}
	b.Delete(storage.EdgeID(3))
	b.Delete(storage.EdgeID(10))
	if b.Impossible() {
		t.Fatal("delta unexpectedly unbufferable")
	}
	d := b.Freeze()
	if d.Empty() {
		t.Fatal("delta unexpectedly empty")
	}
	return NewRuntimeOver(s, g2, d)
}

// TestZeroAllocExtendDeltaSplice pins the snapshot-read contract: a Count
// whose EXTEND fetches splice a non-empty delta overlay into the frozen
// base must stay allocation-free in steady state (the merged entries land
// in reusable per-op scratch buffers).
func TestZeroAllocExtendDeltaSplice(t *testing.T) {
	rt := deltaRuntime(t)
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

// TestZeroAllocIntersectDeltaSplice is the 2-way E/I variant: both
// intersected lists are spliced before galloping.
func TestZeroAllocIntersectDeltaSplice(t *testing.T) {
	rt := deltaRuntime(t)
	plan := &Plan{
		NumV: 3, NumE: 3,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
				{Kind: ListPrimary, Dir: index.BW, OwnerVertexSlot: 0, EdgeSlot: 2},
			}},
		},
	}
	assertZeroAlloc(t, rt, plan)
}

// TestDeltaSpliceCountMatchesEnumeration cross-checks the delta fetch path
// against itself: the folded Count (FetchLen arithmetic) must equal full
// enumeration (Splice materialization), with identical i-cost.
func TestDeltaSpliceCountMatchesEnumeration(t *testing.T) {
	rt := deltaRuntime(t)
	rtEnum := &Runtime{Store: rt.Store, G: rt.G, Delta: rt.Delta}
	// Star fan-out whose tail folds under count pushdown.
	plan := &Plan{
		NumV: 3, NumE: 2,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 1},
			}},
		},
	}
	if plan.countFoldStart() >= len(plan.Ops) {
		t.Fatal("fold suffix not recognized")
	}
	folded := plan.Count(rt)
	var enumerated int64
	plan.Execute(rtEnum, func(*Binding) bool { enumerated++; return true })
	if folded != enumerated {
		t.Fatalf("folded count %d != enumerated %d", folded, enumerated)
	}
	if rt.ICost != rtEnum.ICost {
		t.Fatalf("folded i-cost %d != enumerated %d", rt.ICost, rtEnum.ICost)
	}
}
