package exec

import (
	"testing"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

func exampleRuntime(t *testing.T) *Runtime {
	t.Helper()
	s, err := index.NewStore(storage.ExampleGraph(), index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return NewRuntime(s)
}

func wireCodes(t *testing.T, rt *Runtime) []uint16 {
	t.Helper()
	codes, ok := rt.Store.Primary().ResolveCodes([]storage.Value{storage.Str(storage.LabelWire)})
	if !ok {
		t.Fatal("Wire should resolve")
	}
	return codes
}

func TestExtendSingleList(t *testing.T) {
	rt := exampleRuntime(t)
	// Example 2: Alice -> Owns -> a1 -> Wire -> a2.
	ownsCodes, _ := rt.Store.Primary().ResolveCodes([]storage.Value{storage.Str(storage.LabelOwns)})
	plan := &Plan{
		NumV: 3, NumE: 2,
		Ops: []Op{
			&ScanVertexOp{Slot: 0, Terms: []CompiledTerm{{
				Left: VertexOperand(0, storage.PropName), Op: pred.EQ, Right: ConstOperand(storage.Str("Alice")),
			}}},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{{
				Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, Codes: ownsCodes, EdgeSlot: 0,
			}}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{{
				Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, Codes: wireCodes(t, rt), EdgeSlot: 1,
			}}},
		},
	}
	// Alice owns v1 (Wire out: t4,t17,t20) and v2 (Wire out: t8) -> 4.
	if got := plan.Count(rt); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if rt.ICost == 0 {
		t.Error("i-cost not accounted")
	}
}

func TestExtendIntersectTriangles(t *testing.T) {
	// Build a graph with known triangles: 0->1->2->0 and 0->1->3->0.
	g := storage.NewGraph()
	g.AddVertices(5, "A")
	edges := [][2]storage.VertexID{{0, 1}, {1, 2}, {2, 0}, {1, 3}, {3, 0}, {1, 4}}
	for _, e := range edges {
		if _, err := g.AddEdge(e[0], e[1], "W"); err != nil {
			t.Fatal(err)
		}
	}
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(s)
	// Triangle a0->a1->a2->a0: scan a0, extend to a1, then E/I: a2 in
	// FW(a1) ∩ BW(a0).
	plan := &Plan{
		NumV: 3, NumE: 3,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{{
				Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
			}}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
				{Kind: ListPrimary, Dir: index.BW, OwnerVertexSlot: 0, EdgeSlot: 2},
			}},
		},
	}
	// Directed triangles: (0,1,2), (1,2,0), (2,0,1), (0,1,3), (1,3,0), (3,0,1).
	if got := plan.Count(rt); got != 6 {
		t.Errorf("triangles = %d, want 6", got)
	}
}

func TestIntersectParallelEdges(t *testing.T) {
	// Parallel edges must produce one match per edge combination.
	g := storage.NewGraph()
	g.AddVertices(3, "A")
	g.AddEdge(0, 2, "W")
	g.AddEdge(0, 2, "W") // parallel
	g.AddEdge(1, 2, "W")
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(s)
	// v2 = FW(0) ∩ FW(1): nbr 2 matched, 2 edge choices from list 0.
	plan := &Plan{
		NumV: 3, NumE: 2,
		Ops: []Op{
			&ScanVertexOp{Slot: 0, IDs: exactID(0)},
			&ScanVertexOp{Slot: 1, IDs: exactID(1)},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
			}},
		},
	}
	if got := plan.Count(rt); got != 2 {
		t.Errorf("count = %d, want 2 (parallel edges)", got)
	}
}

func TestSegmentFetch(t *testing.T) {
	rt := exampleRuntime(t)
	// VPt-style index: sort v5's transfers by date, fetch date <= 10.
	vp, err := rt.Store.CreateVertexPartitioned(index.VPDef{
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
	ref := ListRef{
		Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
		Seg:    &Segment{Key: index.SortKey{Var: pred.VarAdj, Prop: storage.PropDate}, Bounds: []Bound{{Op: pred.LE, Value: storage.Int(10)}}},
		Expand: ExpandChoices(nil, vp.LevelCards(index.FW)),
	}
	// Execute through an EXTEND so bucket choices are honoured.
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0, IDs: exactID(4)}, // v5
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{ref}},
		},
	}
	var seen []int64
	plan.Execute(rt, func(b *Binding) bool {
		seen = append(seen, rt.G.EdgeProp(b.E[0], storage.PropDate).I)
		return true
	})
	// v5's out transfers with date <= 10: t1,t2,t3,t9,t10 -> 5.
	if len(seen) != 5 {
		t.Fatalf("segment matches = %v, want 5", seen)
	}
	for _, d := range seen {
		if d > 10 {
			t.Errorf("edge with date %d leaked past the segment", d)
		}
	}
}

func TestMultiExtendSameCity(t *testing.T) {
	rt := exampleRuntime(t)
	// MF1's core step: from a1, find (a2, a4) with a1->a2, a4->a1 (one fw
	// one bw list) in the same city, using city-sorted secondary lists.
	vp, err := rt.Store.CreateVertexPartitioned(index.VPDef{
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
	cityKey := index.SortKey{Var: pred.VarNbr, Prop: storage.PropCity}
	plan := &Plan{
		NumV: 3, NumE: 2,
		Ops: []Op{
			&ScanVertexOp{Slot: 0, IDs: exactID(0)}, // a1 = v1
			&MultiExtendOp{Key: cityKey, Groups: []MEGroup{
				{TargetSlot: 1, Lists: []ListRef{{Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0, Expand: ExpandChoices(nil, vp.LevelCards(index.FW))}}},
				{TargetSlot: 2, Lists: []ListRef{{Kind: ListVP, VP: vp, Dir: index.BW, OwnerVertexSlot: 0, EdgeSlot: 1, Expand: ExpandChoices(nil, vp.LevelCards(index.BW))}}},
			}},
		},
	}
	// Brute force on the example graph.
	g := rt.G
	want := 0
	for e1 := 0; e1 < g.NumEdges(); e1++ {
		if g.Src(storage.EdgeID(e1)) != 0 {
			continue
		}
		for e2 := 0; e2 < g.NumEdges(); e2++ {
			if g.Dst(storage.EdgeID(e2)) != 0 {
				continue
			}
			c1 := g.VertexProp(g.Dst(storage.EdgeID(e1)), storage.PropCity)
			c2 := g.VertexProp(g.Src(storage.EdgeID(e2)), storage.PropCity)
			if !c1.IsNull() && c1.Equal(c2) {
				want++
			}
		}
	}
	if got := plan.Count(rt); got != int64(want) {
		t.Errorf("count = %d, brute force = %d", got, want)
	}
	if want == 0 {
		t.Fatal("degenerate test: no same-city pairs")
	}
}

func TestMultiExtendThreeWay(t *testing.T) {
	rt := exampleRuntime(t)
	vp, err := rt.Store.CreateVertexPartitioned(index.VPDef{
		View: index.View1Hop{Name: "VPc"},
		Dirs: []index.Direction{index.FW},
		Cfg: index.Config{
			Partitions: index.DefaultConfig().Partitions,
			Sorts:      []index.SortKey{{Var: pred.VarNbr, Prop: storage.PropCity}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cityKey := index.SortKey{Var: pred.VarNbr, Prop: storage.PropCity}
	// From v5 and v1 simultaneously: find (x, y) where v5->x, v1->y, and
	// x.city == y.city.
	plan := &Plan{
		NumV: 4, NumE: 2,
		Ops: []Op{
			&ScanVertexOp{Slot: 0, IDs: exactID(4)},
			&ScanVertexOp{Slot: 1, IDs: exactID(0)},
			&MultiExtendOp{Key: cityKey, Groups: []MEGroup{
				{TargetSlot: 2, Lists: []ListRef{{Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0, Expand: ExpandChoices(nil, vp.LevelCards(index.FW))}}},
				{TargetSlot: 3, Lists: []ListRef{{Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1, Expand: ExpandChoices(nil, vp.LevelCards(index.FW))}}},
			}},
		},
	}
	g := rt.G
	want := 0
	for e1 := 0; e1 < g.NumEdges(); e1++ {
		if g.Src(storage.EdgeID(e1)) != 4 {
			continue
		}
		for e2 := 0; e2 < g.NumEdges(); e2++ {
			if g.Src(storage.EdgeID(e2)) != 0 {
				continue
			}
			c1 := g.VertexProp(g.Dst(storage.EdgeID(e1)), storage.PropCity)
			c2 := g.VertexProp(g.Dst(storage.EdgeID(e2)), storage.PropCity)
			if !c1.IsNull() && c1.Equal(c2) {
				want++
			}
		}
	}
	if got := plan.Count(rt); got != int64(want) {
		t.Errorf("count = %d, brute force = %d", got, want)
	}
}

func TestEPExtension(t *testing.T) {
	rt := exampleRuntime(t)
	ep, err := rt.Store.CreateEdgePartitioned(index.EPDef{
		View: index.View2Hop{
			Name: "MoneyFlow",
			Dir:  index.DestinationFW,
			Pred: pred.Predicate{}.
				And(pred.VarTerm(pred.VarBound, storage.PropDate, pred.LT, pred.VarAdj, storage.PropDate)).
				And(pred.VarTerm(pred.VarBound, storage.PropAmount, pred.GT, pred.VarAdj, storage.PropAmount)),
		},
		Cfg: index.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Example 7's query: anchor at t13, follow two MoneyFlow hops.
	t13 := storage.Transfer(13)
	plan := &Plan{
		NumV: 4, NumE: 3,
		Ops: []Op{
			&ScanEdgeOp{EdgeSlot: 0, SrcSlot: 0, DstSlot: 1, ExactID: &t13},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{{
				Kind: ListEP, EP: ep, OwnerEdgeSlot: 0, EdgeSlot: 1,
			}}},
			&ExtendIntersectOp{TargetSlot: 3, Lists: []ListRef{{
				Kind: ListEP, EP: ep, OwnerEdgeSlot: 1, EdgeSlot: 2,
			}}},
		},
	}
	// t13 -> t19 (£5, to v3); from t19, v3's forward edges with date > 19,
	// amt < 5: none. So 0 full 3-hop matches.
	if got := plan.Count(rt); got != 0 {
		t.Errorf("3-hop count = %d, want 0", got)
	}
	// Two-hop prefix: exactly 1 (t13 -> t19). i-cost for the EP read is 1.
	rt2 := NewRuntime(rt.Store)
	plan2 := &Plan{NumV: 3, NumE: 2, Ops: plan.Ops[:2]}
	if got := plan2.Count(rt2); got != 1 {
		t.Errorf("2-hop count = %d, want 1", got)
	}
	if rt2.ICost != 1 {
		t.Errorf("i-cost = %d, want 1 (the paper: scans only one edge)", rt2.ICost)
	}
}

func TestFilterOp(t *testing.T) {
	rt := exampleRuntime(t)
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0, IDs: exactID(4)},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{{
				Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
			}}},
			&FilterOp{Terms: []CompiledTerm{{
				Left: EdgeOperand(0, storage.PropAmount), Op: pred.GT, Right: ConstOperand(storage.Int(100)),
			}}},
		},
	}
	// v5's out transfers with amt>100: t3 ($200). (t16 is from v4.)
	if got := plan.Count(rt); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
}

func TestGallopNbrs(t *testing.T) {
	nbrs := []uint32{1, 3, 3, 7, 9, 12, 15, 15, 15, 20}
	for target := uint32(0); target <= 21; target++ {
		got := gallopNbrs(nbrs, 0, target)
		want := 0
		for want < len(nbrs) && nbrs[want] < target {
			want++
		}
		if got != want {
			t.Errorf("gallopNbrs(%d) = %d, want %d", target, got, want)
		}
	}
	// From a mid position.
	if got := gallopNbrs(nbrs, 4, 15); got != 6 {
		t.Errorf("gallopNbrs from 4 = %d, want 6", got)
	}
}

func TestRunEndOf(t *testing.T) {
	// Long duplicate (parallel-edge) runs must be skipped by galloping, and
	// the result must match a linear scan exactly.
	nbrs := []uint32{1, 3, 3, 7, 9}
	for i := 0; i < 1000; i++ {
		nbrs = append(nbrs, 12)
	}
	nbrs = append(nbrs, 15, 20)
	for _, pos := range []int{0, 1, 2, 3, 4, 5, 500, 1004, 1005, 1006} {
		target := nbrs[pos]
		got := runEndOf(nbrs, pos, target)
		want := pos
		for want < len(nbrs) && nbrs[want] == target {
			want++
		}
		if got != want {
			t.Errorf("runEndOf(pos=%d, target=%d) = %d, want %d", pos, target, got, want)
		}
	}
	// Max-value target must not overflow.
	maxed := []uint32{5, ^uint32(0), ^uint32(0)}
	if got := runEndOf(maxed, 1, ^uint32(0)); got != 3 {
		t.Errorf("runEndOf(max target) = %d, want 3", got)
	}
}

func TestPlanExplain(t *testing.T) {
	rt := exampleRuntime(t)
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{{
				Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0, Codes: wireCodes(t, rt),
			}}},
		},
	}
	if s := plan.Explain(); s == "" {
		t.Error("empty explain")
	}
}

func TestExecuteEarlyStop(t *testing.T) {
	rt := exampleRuntime(t)
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{{
				Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
			}}},
		},
	}
	n := 0
	plan.Execute(rt, func(*Binding) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop after %d matches, want 3", n)
	}
}

func exactID(v storage.VertexID) *IDRange { return &IDRange{Lo: int64(v), Hi: int64(v) + 1} }
