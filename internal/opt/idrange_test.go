package opt

import (
	"fmt"
	"testing"

	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/storage"
)

// idBound is one constant comparison on the scanned vertex's ID.
type idBound struct {
	op pred.Op
	c  int64
}

// TestIDRangeScanParity checks that a scan narrowed to a vertex-ID range
// answers like the brute-force oracle for every kind of bound, with and
// without a label, at every worker count and morsel size, and that count
// and i-cost do not depend on the worker count. Two different exact IDs
// must match nothing, not the last one.
func TestIDRangeScanParity(t *testing.T) {
	const nv = 90
	g := randomGraph(nv, 600, 2, 2, 7)
	s, err := index.NewStore(g, index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string][]idBound{
		"lt":       {{pred.LT, 30}},
		"le":       {{pred.LE, 30}},
		"gt":       {{pred.GT, 55}},
		"ge":       {{pred.GE, 55}},
		"both":     {{pred.GE, 20}, {pred.LT, 47}},
		"negative": {{pred.GT, -7}, {pred.LE, 12}},
		"below-0":  {{pred.LT, -3}},
		"past-end": {{pred.GE, 70}, {pred.LT, 5000}},
		"empty":    {{pred.GT, 40}, {pred.LT, 35}},
		"eq":       {{pred.EQ, 17}},
		"eq-in":    {{pred.EQ, 17}, {pred.LT, 30}},
		"eq-out":   {{pred.LT, 10}, {pred.EQ, 17}},
		"eq-eq":    {{pred.EQ, 17}, {pred.EQ, 18}},
		"eq-past":  {{pred.EQ, 500}},
	}
	shapes := []string{
		"MATCH a-[e1]->b-[e2]->c",
		"MATCH a-[e1]->b-[e2]->c, a-[e3]->c",
		"MATCH (a:VL1)-[e1]->b-[e2]->c",
		"MATCH (a:VL0)-[e1]->b, a-[e2]->c, b-[e3]->c",
	}
	var cfgs []exec.ParallelOptions
	for _, w := range []int{1, 2, 3, 8} {
		for _, m := range []int{0, 1, 7} {
			cfgs = append(cfgs, exec.ParallelOptions{Workers: w, MorselSize: m})
		}
	}
	for _, shape := range shapes {
		for name, bs := range bounds {
			q := mustParse(t, shape)
			for _, b := range bs {
				q.Preds = append(q.Preds, query.Pred{LeftVar: "a", LeftProp: pred.PropID, Op: b.op, Const: storage.Int(b.c)})
			}
			label := fmt.Sprintf("%s / %s", shape, name)
			plan, err := Optimize(s, q, ModeDefault)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			scan, ok := plan.Ops[0].(*exec.ScanVertexOp)
			if !ok || scan.Slot != 0 || scan.IDs == nil || len(scan.Terms) != 0 {
				t.Fatalf("%s: want a scan of a over an ID range and no terms, plan:\n%s", label, plan.Explain())
			}
			want := ReferenceCount(g, q)
			var icost int64 = -1
			for _, o := range cfgs {
				rt := exec.NewRuntime(s)
				got, err := plan.CountParallel(rt, o)
				if err != nil {
					t.Fatalf("%s %+v: %v", label, o, err)
				}
				if got != want {
					t.Errorf("%s %+v: count %d, oracle %d\nplan:\n%s", label, o, got, want, plan.Explain())
				}
				if icost < 0 {
					icost = rt.ICost
				} else if rt.ICost != icost {
					t.Errorf("%s %+v: i-cost %d, want %d as at 1 worker", label, o, rt.ICost, icost)
				}
			}
		}
	}
}

// TestIDRangeKeepsPlanAfterScan checks that absorbing ID bounds into the
// scan changes only the scan line: the operators after it are the ones the
// same query plans with the bounds kept as non-int (float) terms, which the
// scan still evaluates one vertex at a time.
func TestIDRangeKeepsPlanAfterScan(t *testing.T) {
	s, err := index.NewStore(randomGraph(60, 400, 2, 2, 3), index.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"MATCH a-[e1]->b-[e2]->c, a-[e3]->c WHERE a.ID < %s",
		"MATCH (a:VL0)-[e1]->b-[e2]->c WHERE a.ID >= %s",
	} {
		ranged, err := Optimize(s, mustParse(t, fmt.Sprintf(src, "20")), ModeDefault)
		if err != nil {
			t.Fatal(err)
		}
		termed, err := Optimize(s, mustParse(t, fmt.Sprintf(src, "20.0")), ModeDefault)
		if err != nil {
			t.Fatal(err)
		}
		if ranged.Ops[0].(*exec.ScanVertexOp).IDs == nil || termed.Ops[0].(*exec.ScanVertexOp).IDs != nil {
			t.Fatalf("%s: want the int bound as a range and the float bound as a term:\n%s\n%s", src, ranged.Explain(), termed.Explain())
		}
		r, m := ranged.OpNames(), termed.OpNames()
		if fmt.Sprint(r[1:]) != fmt.Sprint(m[1:]) || ranged.EstimatedICost != termed.EstimatedICost {
			t.Errorf("%s: plans differ after the scan:\n%s\n%s", src, ranged.Explain(), termed.Explain())
		}
	}
}
