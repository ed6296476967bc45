package exec

// Tests for the per-plan pipeline cache: a Runtime alternating between
// cached plans must stay allocation-free in steady state, and overflowing
// the cache must rebuild rather than grow or corrupt results.

import (
	"testing"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// vertexPathPlan is a vertex-rooted 2-path with a predicate on the scan.
func vertexPathPlan() *Plan {
	return &Plan{
		NumV: 3, NumE: 2,
		Ops: []Op{
			&ScanVertexOp{Slot: 0, Terms: []CompiledTerm{{
				Left: VertexOperand(0, pred.PropID), Op: pred.GE, Right: ConstOperand(storage.Int(0)),
			}}},
			&ExtendIntersectOp{TargetSlot: 1, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 0, EdgeSlot: 0},
			}},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
			}},
		},
	}
}

// edgePathPlan is an edge-rooted 2-path.
func edgePathPlan() *Plan {
	return &Plan{
		NumV: 3, NumE: 2,
		Ops: []Op{
			&ScanEdgeOp{EdgeSlot: 0, SrcSlot: 0, DstSlot: 1},
			&ExtendIntersectOp{TargetSlot: 2, Lists: []ListRef{
				{Kind: ListPrimary, Dir: index.FW, OwnerVertexSlot: 1, EdgeSlot: 1},
			}},
		},
	}
}

// TestZeroAllocAlternatingPlans pins the per-plan pipeline cache: once a
// Runtime has executed two distinct plans, alternating between them stays
// allocation-free (previously only the immediately-preceding plan was
// cached, so alternation recompiled a pipeline per call).
func TestZeroAllocAlternatingPlans(t *testing.T) {
	s := allocStore(t)
	rt := NewRuntime(s)
	p1 := vertexPathPlan()
	p2 := edgePathPlan()
	w1 := p1.Count(rt)
	w2 := p2.Count(rt)
	if w1 == 0 || w2 == 0 {
		t.Fatal("degenerate test: no matches")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if got := p1.Count(rt); got != w1 {
			t.Fatalf("p1 count changed: %d vs %d", got, w1)
		}
		if got := p2.Count(rt); got != w2 {
			t.Fatalf("p2 count changed: %d vs %d", got, w2)
		}
	})
	if allocs != 0 {
		t.Errorf("alternating warm plans allocated %.1f times per run, want 0", allocs)
	}
}

// TestPipelineCacheOverflow pins that overflowing the pipeline cache drops
// and rebuilds rather than growing without bound or corrupting results.
func TestPipelineCacheOverflow(t *testing.T) {
	s := allocStore(t)
	rt := NewRuntime(s)
	ref := vertexPathPlan()
	want := ref.Count(NewRuntime(s))
	for i := 0; i < maxCachedPipelines+8; i++ {
		p := vertexPathPlan() // distinct *Plan each time
		if got := p.Count(rt); got != want {
			t.Fatalf("plan %d: count %d, want %d", i, got, want)
		}
	}
	if len(rt.pipes) > maxCachedPipelines {
		t.Fatalf("pipeline cache grew to %d entries, cap %d", len(rt.pipes), maxCachedPipelines)
	}
	if got := ref.Count(rt); got != want {
		t.Fatalf("after overflow: count %d, want %d", got, want)
	}
}
