package aplus

// Integration tests for the compiled-plan cache on the embedded read path:
// repeated and alternating query texts must hit, layout-only differences
// must share an entry, and any event that publishes a new index store
// (fold, DDL) must invalidate exactly once — a hit always returns the plan
// a fresh compile would have produced.

import (
	"fmt"
	"strings"
	"testing"
)

func planCacheGraph(t *testing.T) *DB {
	t.Helper()
	db := New()
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := db.AddVertex("P", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			if _, err := db.AddEdge(VertexID(i), VertexID((i+d)%n), "K", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestPlanCacheHitsAndAlternation(t *testing.T) {
	db := planCacheGraph(t)
	q1 := "MATCH a-[e]->b"
	q2 := "MATCH a-[e]->b, b-[f]->c"
	n1, err := db.Count(q1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := db.Count(q2)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.PlanCacheHits != 0 || st.PlanCacheMisses != 2 || st.PlanCacheEntries != 2 {
		t.Fatalf("after cold runs: %+v", pcTriple(st))
	}
	// Alternating texts must all hit (the old last-pipeline cache only kept
	// the immediately-previous plan warm).
	for i := 0; i < 3; i++ {
		if got, err := db.Count(q1); err != nil || got != n1 {
			t.Fatalf("q1: %d, %v (want %d)", got, err, n1)
		}
		if got, err := db.Count(q2); err != nil || got != n2 {
			t.Fatalf("q2: %d, %v (want %d)", got, err, n2)
		}
	}
	st = db.Stats()
	if st.PlanCacheHits != 6 || st.PlanCacheMisses != 2 {
		t.Fatalf("after alternation: %+v", pcTriple(st))
	}
}

func TestPlanCacheNormalizedKey(t *testing.T) {
	db := planCacheGraph(t)
	if _, err := db.Count("MATCH a-[e]->b"); err != nil {
		t.Fatal(err)
	}
	// Same query, different layout: must share the entry.
	if _, err := db.Count("  MATCH\t a-[e]->b \n"); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.PlanCacheHits != 1 || st.PlanCacheMisses != 1 || st.PlanCacheEntries != 1 {
		t.Fatalf("normalized key: %+v", pcTriple(st))
	}
}

func TestPlanCacheInvalidatedByWriteAndFold(t *testing.T) {
	db := planCacheGraph(t)
	q := "MATCH a-[e]->b"
	before, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	// A committed write leaves the store unchanged (delta overlay) but the
	// delta-pending planner mode is part of the key: the next read misses
	// once, then hits, and sees the new edge.
	if _, err := db.AddEdge(0, 5, "K", nil); err != nil {
		t.Fatal(err)
	}
	got, err := db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != before+1 {
		t.Fatalf("count after write: %d, want %d", got, before+1)
	}
	// Folding publishes a new store: the generation flips, so the next read
	// compiles fresh against the folded indexes and still sees the edge.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != before+1 {
		t.Fatalf("count after fold: %d, want %d", got, before+1)
	}
}

func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	db := planCacheGraph(t)
	q := "MATCH a-[e]->b WHERE e.w > 0"
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	hitsBefore := db.Stats().PlanCacheHits
	if hitsBefore == 0 {
		t.Fatal("expected a warm hit before DDL")
	}
	// DDL publishes a new store; the cached plan must not be reused (it
	// may now be beaten by the new index, and its pointers are stale).
	if err := db.Exec("CREATE 1-HOP VIEW V MATCH vs-[eadj]->vd INDEX AS FW PARTITION BY eadj.label"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Count(q); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.PlanCacheHits != hitsBefore {
		t.Fatalf("hit served across DDL: hits %d -> %d", hitsBefore, st.PlanCacheHits)
	}
	// The re-compiled plan should now use the secondary view.
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "V") {
		t.Logf("plan after DDL (no view chosen, acceptable if costed out):\n%s", plan)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := planCacheGraph(t)
	db.PlanCacheSize = -1
	for i := 0; i < 3; i++ {
		if _, err := db.Count("MATCH a-[e]->b"); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.PlanCacheHits != 0 || st.PlanCacheMisses != 0 || st.PlanCacheEntries != 0 {
		t.Fatalf("disabled cache counted: %+v", pcTriple(st))
	}
}

func pcTriple(st Stats) [3]int64 {
	return [3]int64{st.PlanCacheHits, st.PlanCacheMisses, st.PlanCacheEntries}
}

// TestCachedPlanBindsPerSnapshot runs each cached plan text on two
// snapshots of one store with no fold between them. The second snapshot
// changes the score and city columns (a new vertex, a new city string) and
// adds a rank column; a second store's vertex-only commit interns a city
// that shifts the ranks a sorted segment's bound maps to. Each run must
// answer for its own snapshot, which holds only if a plan's terms and
// segment bounds are bound per pipeline, against the snapshot it reads,
// and never on the cached plan.
func TestCachedPlanBindsPerSnapshot(t *testing.T) {
	db := New()
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := db.AddVertex("P", Props{"score": i, "city": fmt.Sprintf("C%d", i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := db.AddEdge(VertexID(i), VertexID((i+1)%n), "K", nil); err != nil {
			t.Fatal(err)
		}
	}
	queries := []struct {
		q             string
		before, after int64
	}{
		{"MATCH a-[e]->b WHERE a.score > 5", 2, 3},
		{"MATCH a-[e]->b WHERE a.city = 'Oslo'", 0, 1},
		{"MATCH a-[e]->b WHERE a.city = b.city", 0, 1},
		{"MATCH a-[e]->b WHERE a.rank > 0", 0, 1},
	}
	counts := func(phase string, want func(int) int64) {
		t.Helper()
		for i, q := range queries {
			for rep := 0; rep < 2; rep++ {
				got, err := db.Count(q.q)
				if err != nil {
					t.Fatal(err)
				}
				if got != want(i) {
					t.Fatalf("%s: %q counted %d, want %d", phase, q.q, got, want(i))
				}
			}
		}
	}
	// A pending edge (between two cities, from a low score) puts the
	// planner in its delta mode before the first count, so both snapshots
	// below share each text's plan-cache key.
	if _, err := db.Count(queries[0].q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddEdge(0, 1, "K", nil); err != nil {
		t.Fatal(err)
	}
	counts("first snapshot", func(i int) int64 { return queries[i].before })
	st1 := db.Stats()
	// One batch: a vertex with a new city and a first rank, an edge from it
	// to a vertex of the same city, and nothing that folds.
	err := db.Batch(func(b *Batch) error {
		v, err := b.AddVertex("P", Props{"score": 9, "city": "Oslo", "rank": 1})
		if err != nil {
			return err
		}
		w, err := b.AddVertex("P", Props{"city": "Oslo"})
		if err != nil {
			return err
		}
		_, err = b.AddEdge(v, w, "K", nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	st2 := db.Stats()
	if st2.Epoch == st1.Epoch || st2.PendingWrites <= st1.PendingWrites {
		t.Fatalf("the batch must publish a new snapshot without a fold: epoch %d -> %d, pending %d -> %d",
			st1.Epoch, st2.Epoch, st1.PendingWrites, st2.PendingWrites)
	}
	counts("second snapshot", func(i int) int64 { return queries[i].after })
	st3 := db.Stats()
	if st3.PlanCacheMisses != st2.PlanCacheMisses {
		t.Fatalf("the second snapshot must reuse the cached plans: misses %d -> %d", st2.PlanCacheMisses, st3.PlanCacheMisses)
	}

	// A sorted segment's constant bound: under a primary sorted on
	// vnbr.city the planner serves b.city = 'M' by binary search. A
	// vertex-only commit that interns a smaller city shifts every city's
	// rank in the new snapshot without a fold, so the cached plan must
	// map 'M' to an ordinal per pipeline.
	sdb := New()
	for _, c := range []string{"B", "M", "M", "Z"} {
		if _, err := sdb.AddVertex("P", Props{"city": c}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j && (i == 0 || j == 0) {
				if _, err := sdb.AddEdge(VertexID(i), VertexID(j), "K", nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sdb.Exec("RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.city"); err != nil {
		t.Fatal(err)
	}
	const segQ = "MATCH a-[e]->b WHERE b.city = 'M'"
	if plan, err := sdb.Explain(segQ); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(plan, "/seg(") {
		t.Fatalf("%q must read a sorted segment:\n%s", segQ, plan)
	}
	segCount := func(phase string) {
		t.Helper()
		got, err := sdb.Count(segQ)
		if err != nil {
			t.Fatal(err)
		}
		if got != 2 {
			t.Fatalf("%s: %q counted %d, want 2", phase, segQ, got)
		}
	}
	segCount("first snapshot")
	s1 := sdb.Stats()
	if _, err := sdb.AddVertex("P", Props{"city": "A"}); err != nil {
		t.Fatal(err)
	}
	segCount("after a smaller city")
	s2 := sdb.Stats()
	if s2.Epoch == s1.Epoch || s2.FoldsTotal != s1.FoldsTotal {
		t.Fatalf("the vertex must publish a new snapshot without a fold: epoch %d -> %d, folds %d -> %d",
			s1.Epoch, s2.Epoch, s1.FoldsTotal, s2.FoldsTotal)
	}
	if s2.PlanCacheMisses != s1.PlanCacheMisses {
		t.Fatalf("the second snapshot must reuse the cached plan: misses %d -> %d", s1.PlanCacheMisses, s2.PlanCacheMisses)
	}
}
