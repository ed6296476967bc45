package main

import (
	"context"
	"fmt"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/vfs"
)

// singletonWriters is durable-singletons' closed-loop writer count.
const singletonWriters = 2

// edgeStore is any write path a writer's op log can be applied to:
// aplus.DB (singleton commits), aplus.Batch, and the mirror's snap batches.
type edgeStore interface {
	AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error)
	DeleteEdge(e aplus.EdgeID) error
}

// writer applies one op log and remembers what the database acknowledged.
type writer struct {
	log *opLog
	// Per own add j: the edge ID and endpoints, whether the add was
	// acknowledged, and whether an acknowledged delete followed.
	ids     []aplus.EdgeID
	ends    [][2]aplus.VertexID
	acked   []bool
	deleted []bool
	applied []writeOp // every acknowledged op, in commit order
}

// apply stages the log's next op on store. A delete of an add that was
// never acknowledged is skipped; nothing else is.
func (w *writer) apply(store edgeStore) error {
	op := w.log.next()
	if op.Del {
		if !w.acked[op.DelOf] {
			return nil
		}
		if err := store.DeleteEdge(w.ids[op.DelOf]); err != nil {
			return err
		}
		w.deleted[op.DelOf] = true
	} else {
		id, err := store.AddEdge(op.Src, op.Dst, op.Label, aplus.Props{"time": op.Time})
		w.ids, w.ends = append(w.ids, id), append(w.ends, [2]aplus.VertexID{op.Src, op.Dst})
		w.acked, w.deleted = append(w.acked, err == nil), append(w.deleted, false)
		if err != nil {
			return err
		}
	}
	w.applied = append(w.applied, op)
	return nil
}

// openDurable opens a fresh fsync-on database on the real filesystem in a
// temp directory of the checkout and seeds it with the dataset in one
// Batch. fsync on is this benchmark's flush policy; only the ladder's
// wal.append rung ever turns it off.
func openDurable(e *env, ds *dataset, noFsync bool) (*aplus.DB, string, error) {
	dir, err := e.tempDir("db-")
	if err != nil {
		return nil, "", err
	}
	db, err := aplus.OpenOptions{VFS: vfs.OS{}, NoFsync: noFsync}.Open(dir)
	if err != nil {
		return nil, "", err
	}
	e.clean.add(func() { db.Close() })
	if err := db.Batch(func(b *aplus.Batch) error { return ds.load(b) }); err != nil {
		return nil, "", err
	}
	return db, dir, nil
}

// liveEdges streams every edge with an ID at or past firstNew.
func liveEdges(db *aplus.DB, firstNew int) (map[aplus.EdgeID][2]aplus.VertexID, error) {
	got := map[aplus.EdgeID][2]aplus.VertexID{}
	err := db.QueryCtx(context.Background(), "MATCH a-[e]->b", func(r aplus.Row) bool {
		if id := r.Edges["e"]; int(id) >= firstNew {
			got[id] = [2]aplus.VertexID{r.Vertices["a"], r.Vertices["b"]}
		}
		return true
	})
	return got, err
}

// verifyRecovered checks the reopened database against what was
// acknowledged: every acked add that was not deleted is present with its
// endpoints, every acked delete is absent, and nothing else appeared.
func verifyRecovered(res *result, db *aplus.DB, ds *dataset, writers []*writer) error {
	got, err := liveEdges(db, len(ds.edges))
	if err != nil {
		return err
	}
	expected := 0
	for wi, w := range writers {
		for j, id := range w.ids {
			ends, present := got[id]
			switch {
			case !w.acked[j]:
			case w.deleted[j]:
				res.check(!present, "writer %d: acknowledged delete of edge %d is back after reopen", wi, id)
			default:
				res.check(present && ends == w.ends[j], "writer %d: acknowledged edge %d %v missing or wrong after reopen (present=%v ends=%v)",
					wi, id, w.ends[j], present, ends)
				expected++
			}
		}
	}
	res.check(len(got) == expected, "reopened database holds %d new edges, %d were acknowledged and live", len(got), expected)
	return nil
}

func runDurableSingletons(e *env) (*result, error) {
	res := newResult(e, "durable-singletons")
	ds := buildDataset(e.joinGraph())

	var db *aplus.DB
	var dir string
	setups, err := e.repeatSetup(func() (func() error, error) {
		var err error
		if db, dir, err = openDurable(e, ds, false); err != nil {
			return nil, err
		}
		return db.Close, db.Flush()
	})
	if err != nil {
		return nil, err
	}
	st := db.Stats()
	indexBytes(res, st)

	writers := make([]*writer, singletonWriters)
	for i := range writers {
		// Every 5th op deletes the writer's own oldest live edge.
		writers[i] = &writer{log: newOpLog(e.seed, i, ds, 5, 0)}
	}
	var tr *tracer
	var smp *sampler
	if e.trace {
		tr = newTracer()
		smp = startSampler(db.Stats)
	}
	step := func(c, seq int, tr *tracer) (int, error) {
		sp := tr.begin("aplus.DB.AddEdge|DeleteEdge", -1, reqID(c, seq))
		err := writers[c].apply(db)
		tr.end(sp)
		return 0, err
	}
	loop := closedLoop(singletonWriters, e.warm(), e.dur, tr, step)
	res.addLoop(loop)

	if e.trace {
		smp.finish(res, loop.attempted-loop.failed)
		statsDelta(res, st, db.Stats())
		res.Metrics["trace.overhead_frac"] = overheadFrac(loop)
		if err := writeLadder(e, res, tr, ds, step, medianOf(loop.latencies())); err != nil {
			return nil, err
		}
	}

	// Durability: close, reopen from the bytes on disk, and look for every
	// acknowledged op. Killing the process would leave the OS cache intact,
	// so a clean Close loses nothing a crash would keep.
	if err := db.Close(); err != nil {
		return nil, err
	}
	start := time.Now()
	reopened, err := aplus.OpenOptions{VFS: vfs.OS{}}.Open(dir)
	if err != nil {
		res.check(false, "reopen: %v", err)
		return res, nil
	}
	res.Diag["recovery_s"] = time.Since(start).Seconds()
	defer reopened.Close()
	if err := verifyRecovered(res, reopened, ds, writers); err != nil {
		return nil, err
	}

	if !e.trace {
		return res.finishUntraced(loop, setups, fmt.Sprintf("%d writers, closed loop, fsync on, every 5th op a delete", singletonWriters)), nil
	}
	return res.finishTraced(e, tr, map[string]any{})
}

// writeLadder replays the singleton mix down the write rungs: the durable
// database itself (the same writers carry on, so the reopen check covers
// these ops too), a second database with fsync off, and an in-memory
// snap.Manager on an equal-sized graph.
func writeLadder(e *env, res *result, tr *tracer, ds *dataset, top opFunc, caller time.Duration) error {
	nosync, _, err := openDurable(e, ds, true)
	if err != nil {
		return err
	}
	defer nosync.Close()
	if err := nosync.Flush(); err != nil {
		return err
	}
	mir, err := newMirror(ds.cfg, nil, nil)
	if err != nil {
		return err
	}
	defer mir.mgr.Close()
	// Each rung gets its own writers: op logs of their own, same mix.
	stepOn := func(name string, salt int64, apply func(*writer) error) opFunc {
		ws := make([]*writer, singletonWriters)
		for i := range ws {
			ws[i] = &writer{log: newOpLog(e.seed+salt, i, ds, 5, 0)}
		}
		return func(c, seq int, tr *tracer) (int, error) {
			sp := tr.begin(name, -1, reqID(c, seq))
			defer tr.end(sp)
			return 0, apply(ws[c])
		}
	}
	got, err := replay(e, tr, singletonWriters, []rungSpec{
		{name: "aplus.DB.AddEdge fsync", op: top},
		{name: "aplus.DB.AddEdge nofsync", op: stepOn("aplus.DB.AddEdge|DeleteEdge nofsync", 1, func(w *writer) error { return w.apply(nosync) })},
		{name: "snap.Manager.CommitSingle", op: stepOn("snap.Manager.CommitSingle", 2, mir.commitSingle)},
	})
	if err != nil {
		return err
	}
	fsyncOn, fsyncOff, inMemory := got[0], got[1], got[2]

	res.Metrics["snap.commit_us"] = us(inMemory)
	res.Metrics["wal.append_us"] = us(fsyncOff - inMemory)
	res.Metrics["wal.sync_wait_us"] = us(fsyncOn - fsyncOff)
	res.Metrics["ladder.residual_frac"] = 1 - float64(fsyncOn)/float64(caller)
	res.note("write ladder, per singleton op (median), caller saw %.1f us:", us(caller))
	res.note("  aplus.DB.AddEdge fsync on    %10.1f us  self wal.sync_wait_us %10.1f us (%4.1f%%)", us(fsyncOn), us(fsyncOn-fsyncOff), share(fsyncOn-fsyncOff, fsyncOn))
	res.note("  aplus.DB.AddEdge fsync off   %10.1f us  self wal.append_us    %10.1f us (%4.1f%%)", us(fsyncOff), us(fsyncOff-inMemory), share(fsyncOff-inMemory, fsyncOn))
	res.note("  snap.Manager.CommitSingle    %10.1f us  self snap.commit_us   %10.1f us (%4.1f%%)", us(inMemory), us(inMemory), share(inMemory, fsyncOn))
	return nil
}
