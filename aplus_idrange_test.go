package aplus

import (
	"strings"
	"testing"
)

// idRangeDB builds nv vertices with deg out-edges each.
func idRangeDB(t *testing.T, nv, deg int) *DB {
	t.Helper()
	db := New()
	buildDense(t, db, nv, deg)
	return db
}

// TestIDRangeSplitsAcrossWorkers checks that a read anchored on 300 vertex
// IDs scans only that range and still splits it into many morsels at two
// workers, with the count and metrics of the serial run.
func TestIDRangeSplitsAcrossWorkers(t *testing.T) {
	db := idRangeDB(t, 1200, 6)
	const q = "MATCH a-[e1]->b-[e2]->c, a-[e3]->c WHERE a.ID < 300"
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(plan, "\n", 2)[0], "id=[0,300)") {
		t.Fatalf("scan line does not show the ID range:\n%s", plan)
	}
	db.Parallelism = 1
	want, wantM, err := db.CountProfiled(q)
	if err != nil {
		t.Fatal(err)
	}
	db.Parallelism = 2
	tr, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count != want || tr.Metrics.ICost != wantM.ICost || tr.Metrics.PredEvals != wantM.PredEvals {
		t.Errorf("2 workers: count %d icost %d preds %d, want %d %d %d as serial",
			tr.Count, tr.Metrics.ICost, tr.Metrics.PredEvals, want, wantM.ICost, wantM.PredEvals)
	}
	if tr.Morsels <= 1 {
		t.Errorf("a 300-vertex range at 2 workers ran %d morsels, want more than one", tr.Morsels)
	}
}

// TestIDRangeClampsPerSnapshot checks that a cached plan whose ID range
// reaches past the vertex table picks up vertices added after planning: the
// range is clamped to the graph a run reads, not to the one it was planned
// on. A float bound, which stays a term evaluated per vertex, is the
// reference.
func TestIDRangeClampsPerSnapshot(t *testing.T) {
	db := idRangeDB(t, 200, 4)
	const ranged = "MATCH a-[e1]->b WHERE a.ID >= 150, a.ID < 260"
	const termed = "MATCH a-[e1]->b WHERE a.ID >= 150.0, a.ID < 260.0"
	check := func(stage string) int64 {
		t.Helper()
		got, err := db.Count(ranged)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Count(termed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: ID range counts %d, term path %d", stage, got, want)
		}
		return got
	}
	before := check("before writes")
	for i := 0; i < 100; i++ {
		v, err := db.AddVertex("V", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddEdge(v, VertexID(i), "E", nil); err != nil {
			t.Fatal(err)
		}
	}
	if after := check("after adding vertices 200-299"); after <= before {
		t.Errorf("count %d after adding in-range vertices, want more than %d", after, before)
	}
}
