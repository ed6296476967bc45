package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	aplus "github.com/aplusdb/aplus"
)

const (
	// The paced writer commits one 16-op batch every 20 ms: ~800 ops/s,
	// far under batched capacity, so the write path's speed cannot change
	// the load the reader sees. The issue's 5 ms was tried first: a fold
	// of the tuned views takes ~0.7 s plus its checkpoint and is due every
	// 4096 ops, so at 3.2K ops/s folds ran half the time on 2 cores and
	// the reader's median sat on the edge between its two modes (110 ms
	// without a fold, 190 ms with) and moved 10% between runs.
	batchOps   = 16
	batchEvery = 20 * time.Millisecond
	// Every other op deletes the writer's oldest own edge once it has this
	// many live, so the graph the reader queries stops growing.
	mixedKeepLive = 1024
	// maxBacklog is how far behind its schedule the writer may end the
	// window before the run counts as a growing backlog.
	maxBacklog = time.Second
)

// pacedWriter commits on a fixed schedule (open loop) until stopped.
type pacedWriter struct {
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	late    []float64 // per batch: how long after it was due it started, ms
	batches atomic.Int64
	err     error
}

// startPaced runs commit every batchEvery, timed from when each batch was
// due rather than from when the previous one finished.
func startPaced(commit func() error) *pacedWriter {
	p := &pacedWriter{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		start := time.Now()
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * batchEvery)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-p.stop:
					return
				case <-time.After(wait):
				}
			}
			select {
			case <-p.stop:
				return
			default:
			}
			p.late = append(p.late, ms(time.Since(due)))
			if err := commit(); err != nil {
				p.err = fmt.Errorf("paced batch %d: %w", i, err)
				return
			}
			p.batches.Add(1)
		}
	}()
	return p
}

// finish stops the writer and waits for it; it may be called again.
func (p *pacedWriter) finish() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// replayLog rebuilds what the paced writer committed on a fresh in-memory
// database with no views: the oracle for the final recount.
func replayLog(ds *dataset, w *writer) (*aplus.DB, error) {
	db := aplus.New()
	if err := ds.load(db); err != nil {
		return nil, err
	}
	var ids []aplus.EdgeID
	err := db.Batch(func(b *aplus.Batch) error {
		for _, op := range w.applied {
			if op.Del {
				if err := b.DeleteEdge(ids[op.DelOf]); err != nil {
					return err
				}
				continue
			}
			id, err := b.AddEdge(op.Src, op.Dst, op.Label, aplus.Props{"time": op.Time})
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	})
	return db, err
}

func runMixedViews(e *env) (*result, error) {
	res := newResult(e, "mixed-views")
	ds := buildDataset(e.joinGraph())
	queries := viewQueries(ds)
	order := passOrder(e.seed, len(queries))

	var db *aplus.DB
	setups, err := e.repeatSetup(func() (func() error, error) {
		var err error
		if db, _, err = openDurable(e, ds, false); err != nil {
			return nil, err
		}
		return db.Close, tuneAndServe(db, queries[order[0]].Cypher)
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	if _, err := gateCounts(res, db, ds, queries); err != nil {
		return nil, err
	}
	st := db.Stats()
	indexBytes(res, st)

	var tr *tracer
	var smp *sampler
	if e.trace {
		tr = newTracer()
		smp = startSampler(db.Stats)
	}
	w := &writer{log: newOpLog(e.seed, 0, ds, 2, mixedKeepLive)}
	paced := startPaced(func() error {
		return db.Batch(func(b *aplus.Batch) error {
			for i := 0; i < batchOps; i++ {
				if err := w.apply(b); err != nil {
					return err
				}
			}
			return nil
		})
	})
	defer paced.finish()
	ctx := context.Background()
	// Counts move with every commit, so reads in the window are checked for
	// errors only; the recount below checks the answers.
	var hits, explained int
	loop := closedLoop(1, e.warm(), e.dur, tr, func(c, seq int, tr *tracer) (int, error) {
		if tr != nil {
			// A traced pass also asks which plan the next read would get.
			h, n, err := viewHits(db, queries)
			if err != nil {
				return 0, err
			}
			hits, explained = hits+h, explained+n
		}
		return 0, pass(ctx, db, queries, order, nil, tr, reqID(c, seq))
	})
	res.addLoop(loop)

	var rungs readRungs
	if e.trace {
		smp.finish(res, paced.batches.Load()*batchOps)
		statsDelta(res, st, db.Stats())
		res.Metrics["trace.overhead_frac"] = overheadFrac(loop)
		if explained > 0 {
			res.Metrics["index.view_hit_frac"] = float64(hits) / float64(explained)
		}
		texts := cyphers(queries)
		mir, err := newMirror(ds.cfg, tunedDDL, texts)
		if err != nil {
			return nil, err
		}
		defer mir.mgr.Close()
		if rungs, err = mixedLadder(e, tr, texts, db, mir, paced, newOpLog(e.seed+1, 0, ds, 2, mixedKeepLive)); err != nil {
			return nil, err
		}
	}
	paced.finish()
	if paced.err != nil {
		return nil, paced.err
	}
	res.Diag["writer.late_ms"] = median(paced.late)
	last := paced.late[len(paced.late)-1]
	res.check(last < ms(maxBacklog), "paced writer ended %.0f ms behind its schedule: a growing backlog", last)
	res.note("writer committed %d batches of %d ops, one every %v; lateness p50 %.3f ms, max %.3f ms",
		paced.batches.Load(), batchOps, batchEvery, median(paced.late), percentile(paced.late, 100))

	// Recount after the writer has stopped and the delta is folded, against
	// a fresh database built from the writer's op log without any view.
	if err := db.Flush(); err != nil {
		return nil, err
	}
	oracle, err := replayLog(ds, w)
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	for _, q := range queries {
		got, err1 := db.Count(q.Cypher)
		want, err2 := oracle.Count(q.Cypher)
		res.check(err1 == nil && err2 == nil && got == want, "recount: %s tuned=%d op-log replay=%d (%v, %v)", q.Name, got, want, err1, err2)
	}
	h, n, err := viewHits(db, queries)
	if err != nil {
		return nil, err
	}
	res.check(h == n, "after Flush only %d of %d view-backed plans name a view", h, n)

	if !e.trace {
		return res.finishUntraced(loop, setups, fmt.Sprintf(
			"1 reader, closed loop, one operation = one pass over %d view-backed queries; end-to-end metrics are the reader's", len(queries))), nil
	}
	rungs.fill(res, len(queries), medianOf(loop.latencies())/time.Duration(len(queries)))
	return res.finishTraced(e, tr, map[string]any{})
}

// mixedLadder is readLadder under write load: the durable database's own
// paced writer keeps running, and an identical schedule drives the mirror,
// while the DB.CountCtx and pin+exec rungs alternate.
func mixedLadder(e *env, tr *tracer, texts []string, db *aplus.DB, mir *mirror, paced *pacedWriter, mirrorLog *opLog) (readRungs, error) {
	ctx := context.Background()
	mw := &writer{log: mirrorLog}
	mirrorPaced := startPaced(func() error { return mir.commitBatch(mw, batchOps) })
	defer mirrorPaced.finish()
	got, err := replay(e, tr, 1, []rungSpec{
		{name: "aplus.DB.CountCtx", op: cycle("aplus.DB.CountCtx", 1, len(texts), func(_, t int) error {
			_, err := db.CountCtx(ctx, texts[t])
			return err
		})},
		{name: "snap.pin+exec.CountParallel", op: cycle("snap.pin+exec.CountParallel", 1, len(texts), func(_, t int) error {
			_, err := mir.count(t)
			return err
		})},
	})
	paced.finish()
	mirrorPaced.finish()
	if err == nil {
		err = mirrorPaced.err
	}
	if err != nil {
		return readRungs{}, err
	}
	r := readRungs{db: got[0], mirror: got[1]}
	r.bottom(tr, mir)
	return r, nil
}
