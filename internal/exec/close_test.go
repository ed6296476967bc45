package exec

import (
	"testing"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/storage"
)

func TestCloseEdgeOpSortedAndUnsorted(t *testing.T) {
	rt := exampleRuntime(t)
	// Close the edge v1 -> v4 (t20 is the only Wire v1->v4; t20 plus no
	// parallel edges).
	for _, sorted := range []bool{true, false} {
		plan := &Plan{
			NumV: 2, NumE: 1,
			Ops: []Op{
				&ScanVertexOp{Slot: 0, IDs: exactID(0)},
				&ScanVertexOp{Slot: 1, IDs: exactID(3)},
				&CloseEdgeOp{
					List: ListRef{
						Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
						Expand: ExpandChoices(nil, rt.Store.Primary().LevelCards()),
					},
					TargetSlot: 1,
					Sorted:     sorted,
				},
			},
		}
		var edges []storage.EdgeID
		plan.Execute(rt, func(b *Binding) bool {
			edges = append(edges, b.E[0])
			return true
		})
		if len(edges) != 1 || edges[0] != storage.Transfer(20) {
			t.Errorf("sorted=%v: close found %v, want [t20]", sorted, edges)
		}
	}
}

func TestCloseEdgeOpParallelEdges(t *testing.T) {
	g := storage.NewGraph()
	g.AddVertices(2, "A")
	e1, _ := g.AddEdge(0, 1, "W")
	e2, _ := g.AddEdge(0, 1, "W")
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(s)
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0, IDs: exactID(0)},
			&ScanVertexOp{Slot: 1, IDs: exactID(1)},
			&CloseEdgeOp{
				List: ListRef{
					Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
					Expand: ExpandChoices(nil, s.Primary().LevelCards()),
				},
				TargetSlot: 1,
				Sorted:     true,
			},
		},
	}
	seen := map[storage.EdgeID]bool{}
	plan.Execute(rt, func(b *Binding) bool {
		seen[b.E[0]] = true
		return true
	})
	if !seen[e1] || !seen[e2] || len(seen) != 2 {
		t.Errorf("parallel close found %v", seen)
	}
}

func TestScanEdgeOpFullScan(t *testing.T) {
	rt := exampleRuntime(t)
	// Scan every Wire edge and bind endpoints.
	lbl, _ := rt.G.Catalog().LookupEdgeLabel(storage.LabelWire)
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanEdgeOp{EdgeSlot: 0, SrcSlot: 0, DstSlot: 1, HasLabel: true, Label: lbl},
		},
	}
	n := plan.Count(rt)
	want := int64(0)
	for i := 0; i < rt.G.NumEdges(); i++ {
		if rt.G.EdgeLabel(storage.EdgeID(i)) == lbl {
			want++
		}
	}
	if n != want {
		t.Errorf("scan-edge count = %d, want %d", n, want)
	}
}

func TestScanEdgeOpSkipsDeleted(t *testing.T) {
	rt := exampleRuntime(t)
	if err := rt.Store.Graph().DeleteEdge(storage.Transfer(4)); err != nil {
		t.Fatal(err)
	}
	t4 := storage.Transfer(4)
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanEdgeOp{EdgeSlot: 0, SrcSlot: 0, DstSlot: 1, ExactID: &t4},
		},
	}
	if n := plan.Count(rt); n != 0 {
		t.Errorf("deleted edge matched %d times", n)
	}
}

func TestDynamicSegment(t *testing.T) {
	rt := exampleRuntime(t)
	vp, err := rt.Store.CreateVertexPartitioned(index.VPDef{
		View: index.View1Hop{Name: "VPc"},
		Dirs: []index.Direction{index.FW},
		Cfg: index.Config{
			Partitions: index.DefaultConfig().Partitions,
			Sorts:      []index.SortKey{{Var: 2, Prop: storage.PropCity}}, // pred.VarNbr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// From v3 (BOS): neighbours in v3's own city via dynamic segment.
	dyn := VertexOperand(0, storage.PropCity)
	plan := &Plan{
		NumV: 2, NumE: 1,
		Ops: []Op{
			&ScanVertexOp{Slot: 0, IDs: exactID(2)}, // v3, city BOS
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{{
				Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
				Seg:    &Segment{Key: index.SortKey{Var: 2, Prop: storage.PropCity}, DynEq: &dyn},
				Expand: ExpandChoices(nil, vp.LevelCards(index.FW)),
			}}},
		},
	}
	var got []storage.VertexID
	plan.Execute(rt, func(b *Binding) bool {
		got = append(got, b.V[1])
		return true
	})
	// v3's out edges: t5 -> v2 (SF), t12 -> v4 (BOS). Only v4 matches.
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("dynamic segment matched %v, want [v4]", got)
	}
}

// TestDynamicSegmentNullAnchor checks that a DynEq whose anchor property is
// NULL narrows the list to nothing, so it matches nothing and charges no
// i-cost: NULL equals no city. It covers the operand that reads the sort
// key's own column (customers have no city), one that reads another column
// (accounts have no name), and one with no column at all; an account with
// a city is the control.
func TestDynamicSegmentNullAnchor(t *testing.T) {
	rt := exampleRuntime(t)
	city := index.SortKey{Var: 2, Prop: storage.PropCity} // pred.VarNbr
	vp, err := rt.Store.CreateVertexPartitioned(index.VPDef{
		View: index.View1Hop{Name: "VPc"},
		Dirs: []index.Direction{index.FW},
		Cfg:  index.Config{Partitions: index.DefaultConfig().Partitions, Sorts: []index.SortKey{city}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		anchor storage.VertexID
		prop   string
		want   int64
	}{
		{5, storage.PropCity, 0}, // a customer: no city
		{2, storage.PropName, 0}, // an account: no name
		{2, "missing", 0},        // no such column
		{2, storage.PropCity, 1}, // control: v3 (BOS) reaches v4 (BOS)
	} {
		dyn := VertexOperand(0, c.prop)
		plan := &Plan{
			NumV: 2, NumE: 1,
			Ops: []Op{
				&ScanVertexOp{Slot: 0, IDs: exactID(c.anchor)},
				&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{{
					Kind: ListVP, VP: vp, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0,
					Seg:    &Segment{Key: city, DynEq: &dyn},
					Expand: ExpandChoices(nil, vp.LevelCards(index.FW)),
				}}},
			},
		}
		rt.ICost = 0
		if n := plan.Count(rt); n != c.want {
			t.Errorf("anchor v%d.%s: %d matches, want %d", c.anchor+1, c.prop, n, c.want)
		}
		if c.want == 0 && rt.ICost != 0 {
			t.Errorf("anchor v%d.%s: i-cost %d, want 0", c.anchor+1, c.prop, rt.ICost)
		}
	}
}
