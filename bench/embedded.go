package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	aplus "github.com/aplusdb/aplus"
)

// tunedDB loads the dataset into db and applies the paper's tuning: the
// timed part of set-up for the tuned workloads. The first count builds
// nothing new (DDL already built the indexes) but proves a request can be
// served.
func tuneAndServe(db *aplus.DB, first string) error {
	for _, ddl := range tunedDDL {
		if err := db.Exec(ddl); err != nil {
			return fmt.Errorf("%s: %w", ddl, err)
		}
	}
	if err := db.Flush(); err != nil {
		return err
	}
	_, err := db.Count(first)
	return err
}

// gateCounts is the paper's "retuning never changes an answer": every
// query is counted on the tuned database, on the tuned database with
// secondary indexes hidden from the planner, and on a second database
// that never saw any DDL. All three must agree; the agreed counts are what
// every measured operation is then checked against.
func gateCounts(res *result, tuned *aplus.DB, ds *dataset, queries []namedQuery) ([]int64, error) {
	plain := aplus.New()
	if err := ds.load(plain); err != nil {
		return nil, err
	}
	defer plain.Close()
	want := make([]int64, len(queries))
	for i, q := range queries {
		def, err := plain.Count(q.Cypher)
		if err != nil {
			return nil, fmt.Errorf("%s on the default configuration: %w", q.Name, err)
		}
		got, err := tuned.Count(q.Cypher)
		res.check(err == nil && got == def, "gate: %s tuned=%d default=%d err=%v", q.Name, got, def, err)
		tuned.Planner.IgnoreSecondaryIndexes = true
		got, err = tuned.Count(q.Cypher)
		tuned.Planner.IgnoreSecondaryIndexes = false
		res.check(err == nil && got == def, "gate: %s tuned-without-secondary=%d default=%d err=%v", q.Name, got, def, err)
		want[i] = def
	}
	return want, nil
}

// cyphers are the queries' texts, for the ladder.
func cyphers(queries []namedQuery) []string {
	texts := make([]string, len(queries))
	for i, q := range queries {
		texts[i] = q.Cypher
	}
	return texts
}

// usesView reports whether a plan reads any of the tuned secondary indexes.
func usesView(plan string) bool {
	for _, v := range viewNames {
		if strings.Contains(plan, v) {
			return true
		}
	}
	return false
}

// viewHits explains every view-backed query and counts the plans that
// name a secondary index.
func viewHits(db *aplus.DB, queries []namedQuery) (hits, sampled int, err error) {
	for _, q := range queries {
		if !q.ViewBacked {
			continue
		}
		plan, err := db.Explain(q.Cypher)
		if err != nil {
			return hits, sampled, err
		}
		sampled++
		if usesView(plan) {
			hits++
		}
	}
	return hits, sampled, nil
}

// pass runs the queries once in the given order through db.CountCtx and
// checks every count. In a traced slice each query gets a child span.
func pass(ctx context.Context, db *aplus.DB, queries []namedQuery, order []int, want []int64, tr *tracer, req int64) error {
	root := tr.begin("pass", -1, req)
	defer tr.end(root)
	for _, i := range order {
		sp := tr.begin("aplus.DB.CountCtx "+queries[i].Name, root, req)
		n, err := db.CountCtx(ctx, queries[i].Cypher)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", queries[i].Name, err)
		}
		if want != nil && n != want[i] {
			return fmt.Errorf("%s counted %d, the default configuration says %d", queries[i].Name, n, want[i])
		}
	}
	return nil
}

func runEmbeddedJoin(e *env) (*result, error) {
	res := newResult(e, "embedded-join")
	ds := buildDataset(e.joinGraph())
	queries := joinQueries(ds)
	order := passOrder(e.seed, len(queries))

	var db *aplus.DB
	setups, err := e.repeatSetup(func() (func() error, error) {
		db = aplus.New()
		db.Parallelism = runtime.GOMAXPROCS(0)
		if err := ds.load(db); err != nil {
			return nil, err
		}
		return db.Close, tuneAndServe(db, queries[order[0]].Cypher)
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	want, err := gateCounts(res, db, ds, queries)
	if err != nil {
		return nil, err
	}
	st := db.Stats()
	indexBytes(res, st)

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	ctx := context.Background()
	loop := closedLoop(1, e.warm(), e.dur, tr, func(c, seq int, tr *tracer) (int, error) {
		return 0, pass(ctx, db, queries, order, want, tr, reqID(c, seq))
	})
	res.addLoop(loop)
	if !e.trace {
		return res.finishUntraced(loop, setups, fmt.Sprintf("1 caller, closed loop, one operation = one pass over %d queries", len(queries))), nil
	}

	statsDelta(res, st, db.Stats())
	res.Metrics["trace.overhead_frac"] = overheadFrac(loop)
	hits, sampled, err := viewHits(db, queries)
	if err != nil {
		return nil, err
	}
	res.Metrics["index.view_hit_frac"] = float64(hits) / float64(sampled)

	texts := cyphers(queries)
	mir, err := newMirror(ds.cfg, tunedDDL, texts)
	if err != nil {
		return nil, err
	}
	defer mir.mgr.Close()
	rungs, err := readLadder(e, tr, 1, texts, want, nil, nil, db, mir)
	if err != nil {
		return nil, err
	}
	// One operation is a whole pass, so the caller's per-text latency is
	// the pass latency spread over its queries.
	rungs.fill(res, len(queries), medianOf(loop.latencies())/time.Duration(len(queries)))
	return res.finishTraced(e, tr, map[string]any{})
}
