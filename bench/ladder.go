package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/opt"
	"github.com/aplusdb/aplus/internal/proto"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/snap"
)

// The entry-point ladder. The engine has no spans of its own yet (ROADMAP
// item 5), so layers are measured from outside: the workload's own request
// texts are replayed, at the workload's own concurrency, against each
// successively deeper exported entry point on identical data —
//
//	client.Count -> aplus.DB.CountCtx -> snap pin + exec.Plan.CountParallel
//	aplus.DB.AddEdge (fsync) -> DB.AddEdge (no fsync) -> snap.Manager.CommitSingle
//
// — and a layer's self-time is its rung minus the rung below. The rungs
// telescope, so the self-times sum to the top rung; what the ladder can
// fail to explain is the gap between that replayed top rung and what the
// caller saw in the traced window: ladder.residual_frac.

// defaultPrimaryDDL spells index.DefaultConfig() in DDL, which is how a
// package that may not import internal/index gets hold of one.
const defaultPrimaryDDL = "RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label SORT BY vnbr.ID"

// rungTime is how long each rung is replayed in all.
func rungTime(e *env) time.Duration { return max(e.dur/5, time.Second) }

// replayRounds is how many alternating chunks a rung's time is cut into.
const replayRounds = 4

// rungSpec is one entry point to replay: op issues call number seq of one
// client and reports which text it ran; keep, when set, selects the samples
// that count.
type rungSpec struct {
	name string
	op   opFunc
	keep func(opSample) bool
}

// cycle adapts a per-text call to an opFunc that walks `texts` round-robin,
// each client from its own offset, under a span named after the rung.
func cycle(name string, clients, texts int, call func(client, text int) error) opFunc {
	return func(c, seq int, tr *tracer) (int, error) {
		text := (seq + c*texts/clients) % texts
		sp := tr.begin(name, -1, reqID(c, seq))
		err := call(c, text)
		tr.end(sp)
		return text, err
	}
}

// replay runs the rungs at the workload's concurrency in alternating chunks
// (A B C A B C ...), so a noisy stretch of a shared box hits every rung
// alike and differences of rungs stay meaningful. It returns each rung's
// per-text-median mean latency.
func replay(e *env, tr *tracer, clients int, rungs []rungSpec) ([]time.Duration, error) {
	chunk := rungTime(e) / replayRounds
	samples := make([][]opSample, len(rungs))
	for round := 0; round < replayRounds; round++ {
		for i, r := range rungs {
			l := closedLoop(clients, chunk/4, chunk, tr, r.op)
			if l.failed > 0 {
				return nil, fmt.Errorf("ladder rung %s: %d of %d calls failed: %w", r.name, l.failed, l.attempted, l.firstErr)
			}
			samples[i] = append(samples[i], l.samples...)
		}
	}
	out := make([]time.Duration, len(rungs))
	for i, r := range rungs {
		out[i] = textMean(samples[i], r.keep)
	}
	return out, nil
}

func reqID(client, seq int) int64 { return int64(client)<<40 | int64(seq) }

// mirror is a private snap.Manager over the same generated graph and DDL
// as the database under test: the deepest read rungs (pin, exec) and the
// in-memory commit rung run against it.
type mirror struct {
	mgr     *snap.Manager
	texts   []string
	workers int

	mu    sync.Mutex
	plans map[mirrorKey]*exec.Plan
	// icost and matches of the last run of each text; exact for a given
	// snapshot.
	icost, matches []int64

	// addEdge stages an edge carrying a time property on a snap batch.
	addEdge func(b *snap.Batch, src, dst aplus.VertexID, label string, t int64) (aplus.EdgeID, error)
}

// mirrorKey mirrors the engine's plan-cache key: plans are only valid for
// one store identity and one planner mode.
type mirrorKey struct {
	store       any
	text        int
	noSecondary bool
}

func newMirror(cfg gen.Config, ddl []string, texts []string) (*mirror, error) {
	def, err := query.ParseDDL(defaultPrimaryDDL)
	if err != nil {
		return nil, err
	}
	mgr, err := snap.NewManager(gen.Build(cfg), def.(query.Reconfigure).Cfg, snap.Options{})
	if err != nil {
		return nil, err
	}
	for _, stmt := range ddl {
		d, err := query.ParseDDL(stmt)
		if err != nil {
			return nil, err
		}
		switch d := d.(type) {
		case query.Reconfigure:
			err = mgr.Reconfigure(d.Cfg)
		case query.Create1Hop:
			err = mgr.CreateVertexPartitioned(d.Def)
		case query.Create2Hop:
			err = mgr.CreateEdgePartitioned(d.Def)
		default:
			err = fmt.Errorf("mirror: unsupported DDL %q", stmt)
		}
		if err != nil {
			return nil, err
		}
	}
	// snap.Batch takes property values of a type from internal/storage,
	// which this package may not import. An existing integer property of
	// the graph is a value of that type; copies of it with I replaced are
	// new integer values, and mapOf infers the map type.
	intValue := mgr.Current().Graph().EdgeProp(0, "time")
	return &mirror{mgr: mgr, texts: texts, workers: runtime.GOMAXPROCS(0), plans: map[mirrorKey]*exec.Plan{},
		icost: make([]int64, len(texts)), matches: make([]int64, len(texts)),
		addEdge: func(b *snap.Batch, src, dst aplus.VertexID, label string, t int64) (aplus.EdgeID, error) {
			v := intValue
			v.I = t
			return b.AddEdge(src, dst, label, mapOf("time", v))
		}}, nil
}

// count is what DB.CountCtx does below governance: pin, resolve the plan
// for this snapshot (secondary indexes hidden while a delta is pending),
// run it morsel-parallel, unpin.
func (m *mirror) count(text int) (int64, error) {
	s := m.mgr.Acquire()
	defer s.Release()
	key := mirrorKey{s.Store(), text, !s.Delta().Empty()}
	m.mu.Lock()
	plan := m.plans[key]
	m.mu.Unlock()
	if plan == nil {
		q, err := query.Parse(m.texts[text])
		if err != nil {
			return 0, err
		}
		if plan, err = opt.Optimize(s.Store(), q, opt.Mode{DisableSecondary: key.noSecondary}); err != nil {
			return 0, err
		}
		m.mu.Lock()
		m.plans[key] = plan
		m.mu.Unlock()
	}
	rt := exec.NewRuntimeOver(s.Store(), s.Graph(), s.Delta())
	n, err := plan.CountParallel(rt, exec.ParallelOptions{Workers: m.workers})
	m.mu.Lock()
	m.icost[text], m.matches[text] = rt.ICost, n
	m.mu.Unlock()
	return n, err
}

// readRungs are the read ladder's measurements, per call of one text.
type readRungs struct {
	client time.Duration // client.Count round trip (served only)
	db     time.Duration // aplus.DB.CountCtx
	mirror time.Duration // pin + plan lookup + exec
	pin    time.Duration // snap.Manager Acquire+Release
	pinNS  float64       // the same, unrounded: a pin is ~10 ns
	parse  time.Duration // query.Parse
	plan   time.Duration // opt.Optimize
	icost  float64       // mean i-cost per call
	match  float64       // mean matches per call
}

// readLadder replays texts down the read rungs. top, when set, is the
// served workload's own operation (its whole request mix, of which topKeep
// selects the replayed texts); embedded workloads start at DB.CountCtx.
// want, when non-nil, holds the expected count per text.
func readLadder(e *env, tr *tracer, clients int, texts []string, want []int64,
	top opFunc, topKeep func(opSample) bool, db *aplus.DB, mir *mirror) (readRungs, error) {
	ctx := context.Background()
	checked := func(count func(text int) (int64, error)) func(int, int) error {
		return func(_, t int) error {
			n, err := count(t)
			if err == nil && want != nil && n != want[t] {
				err = fmt.Errorf("ladder: %q counted %d, want %d", texts[t], n, want[t])
			}
			return err
		}
	}
	rungs := []rungSpec{
		{name: "aplus.DB.CountCtx", op: cycle("aplus.DB.CountCtx", clients, len(texts),
			checked(func(t int) (int64, error) { return db.CountCtx(ctx, texts[t]) }))},
		{name: "snap.pin+exec.CountParallel", op: cycle("snap.pin+exec.CountParallel", clients, len(texts), checked(mir.count))},
	}
	if top != nil {
		rungs = append(rungs, rungSpec{name: "client", op: top, keep: topKeep})
	}
	got, err := replay(e, tr, clients, rungs)
	if err != nil {
		return readRungs{}, err
	}
	r := readRungs{db: got[0], mirror: got[1]}
	if top != nil {
		r.client = got[2]
	}
	r.bottom(tr, mir)
	return r, nil
}

// bottom fills what is measured directly rather than by replaying a rung:
// the mirror's exact i-cost and match counts, the pin, and the cost of a
// plan-cache miss per text — what a workload larger than the 256-entry
// cache would pay on every request.
func (r *readRungs) bottom(tr *tracer, mir *mirror) {
	n := len(mir.texts)
	for t := 0; t < n; t++ {
		r.icost += float64(mir.icost[t]) / float64(n)
		r.match += float64(mir.matches[t]) / float64(n)
	}
	const pins = 200_000
	start := time.Now()
	for i := 0; i < pins; i++ {
		mir.mgr.Acquire().Release()
	}
	r.pinNS = float64(time.Since(start)) / pins
	r.pin = time.Duration(r.pinNS)
	s := mir.mgr.Acquire()
	defer s.Release()
	parsed := make([]*query.Graph, n)
	r.parse = timeEach(n, func(i int) { parsed[i], _ = query.Parse(mir.texts[i]) })
	r.plan = timeEach(n, func(i int) {
		sp := tr.begin("opt.Optimize", -1, int64(i))
		_, _ = opt.Optimize(s.Store(), parsed[i], opt.Mode{DisableSecondary: !s.Delta().Empty()})
		tr.end(sp)
	})
}

// timeEach times n sequential calls and returns the mean of one.
func timeEach(n int, fn func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return time.Since(start) / time.Duration(n)
}

// fill turns rungs into the per-layer metrics. perOp is how many texts one
// operation of the workload runs (1 for a request, the pass length for a
// pass); caller is the traced window's per-text-median mean latency.
func (r readRungs) fill(res *result, perOp int, caller time.Duration) {
	k := float64(perOp)
	top := r.db
	if r.client > 0 {
		top = r.client
		res.Metrics["served.self_us"] = k * us(r.client-r.db)
	}
	res.Metrics["aplus.govern_us"] = k * us(r.db-r.mirror)
	res.Metrics["snap.pin_ns"] = r.pinNS
	res.Metrics["exec.run_us"] = k * us(r.mirror-r.pin)
	res.Metrics["query.parse_us"] = us(r.parse)
	res.Metrics["opt.plan_us"] = us(r.plan)
	res.Metrics["exec.icost"] = k * r.icost
	if r.match > 0 {
		res.Metrics["exec.icost_per_result"] = r.icost / r.match
	}
	if r.icost > 0 {
		res.Metrics["exec.ns_per_icost"] = float64(r.mirror-r.pin) / r.icost
	}
	if caller > 0 {
		res.Metrics["ladder.residual_frac"] = 1 - float64(top)/float64(caller)
	}
	res.note("read ladder, per operation (%d text(s)), caller saw %.1f us:", perOp, k*us(caller))
	if r.client > 0 {
		res.note("  client.Count                 %10.1f us  self served.self_us  %10.1f us (%4.1f%%)", k*us(r.client), k*us(r.client-r.db), share(r.client-r.db, top))
	}
	res.note("  aplus.DB.CountCtx            %10.1f us  self aplus.govern_us %10.1f us (%4.1f%%)", k*us(r.db), k*us(r.db-r.mirror), share(r.db-r.mirror, top))
	res.note("  snap pin                     %10.3f us  self snap.pin_ns     %10.3f us (%4.1f%%)", k*us(r.pin), k*us(r.pin), share(r.pin, top))
	res.note("  exec.Plan.CountParallel      %10.1f us  self exec.run_us     %10.1f us (%4.1f%%)", k*us(r.mirror-r.pin), k*us(r.mirror-r.pin), share(r.mirror-r.pin, top))
	res.note("  plan-cache miss would add query.parse_us %.1f + opt.plan_us %.1f per text", us(r.parse), us(r.plan))
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// codecTime measures internal/proto's share of one count request: the
// client marshals the request, the server unmarshals it, marshals the
// response, and the client unmarshals that.
func codecTime(texts []string) time.Duration {
	return timeEach(20000, func(i int) {
		req, _ := json.Marshal(proto.CountReq{Q: texts[i%len(texts)], Limits: proto.FromQueryLimits(aplus.QueryLimits{})})
		var gotReq proto.CountReq
		_ = json.Unmarshal(req, &gotReq)
		resp, _ := json.Marshal(proto.CountResp{N: int64(i)})
		var gotResp proto.CountResp
		_ = json.Unmarshal(resp, &gotResp)
	})
}

// statsDelta is what the engine's own counters say happened between two
// Stats() snapshots of the traced window.
func statsDelta(res *result, before, after aplus.Stats) {
	if lookups := (after.PlanCacheHits - before.PlanCacheHits) + (after.PlanCacheMisses - before.PlanCacheMisses); lookups > 0 {
		res.Metrics["plancache.hit_ratio"] = float64(after.PlanCacheHits-before.PlanCacheHits) / float64(lookups)
	}
	if n := after.WALFsync.Count - before.WALFsync.Count; n > 0 {
		res.Metrics["wal.fsync_us"] = us(after.WALFsync.Sum-before.WALFsync.Sum) / float64(n)
	}
	if n := after.GroupCommits - before.GroupCommits; n > 0 {
		res.Metrics["wal.group_size"] = float64(after.GroupedWrites-before.GroupedWrites) / float64(n)
	}
	folds := after.FoldsTotal - before.FoldsTotal
	res.Metrics["snap.folds"] = float64(folds)
	if folds > 0 {
		res.Metrics["snap.incremental_frac"] = float64(after.IncrementalFolds-before.IncrementalFolds) / float64(folds)
	}
	if n := after.FoldDuration.Count - before.FoldDuration.Count; n > 0 {
		res.Metrics["snap.fold_ms"] = ms(after.FoldDuration.Sum-before.FoldDuration.Sum) / float64(n)
	}
}

// indexBytes records the space metrics from a post-set-up Stats().
func indexBytes(res *result, st aplus.Stats) {
	if res.Traced {
		res.Metrics["index.bytes.primary_levels"] = float64(st.PrimaryLevelBytes)
		res.Metrics["index.bytes.primary_ids"] = float64(st.PrimaryIDListBytes)
		res.Metrics["index.bytes.secondary"] = float64(st.SecondaryIndexBytes)
		return
	}
	res.Metrics["index_bytes_per_edge"] = float64(st.PrimaryLevelBytes+st.PrimaryIDListBytes+st.SecondaryIndexBytes) / float64(st.NumEdges)
}

// sampler polls Stats() during a traced window for what only a time series
// shows: how often a delta is pending, and WAL and checkpoint byte growth.
type sampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples int
	pending int
	// walBytes sums positive WALBytes deltas (truncation shrinks the file);
	// ckptBytes sums the size of every new checkpoint epoch seen.
	walBytes, ckptBytes int64
}

func startSampler(stats func() aplus.Stats) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		prev := stats()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			st := stats()
			s.samples++
			if st.PendingWrites > 0 {
				s.pending++
			}
			if d := st.WALBytes - prev.WALBytes; d > 0 {
				s.walBytes += d
			}
			if st.CheckpointEpoch != prev.CheckpointEpoch {
				s.ckptBytes += st.CheckpointBytes
			}
			prev = st
		}
	}()
	return s
}

// finish stops the sampler and records its fractions; ops is the number of
// acknowledged write ops in the window (0 for read-only windows).
func (s *sampler) finish(res *result, ops int64) {
	close(s.stop)
	<-s.done
	if s.samples > 0 {
		res.Metrics["snap.pending_frac"] = float64(s.pending) / float64(s.samples)
	}
	if ops > 0 {
		res.Metrics["wal.bytes_per_op"] = float64(s.walBytes) / float64(ops)
	}
	res.Metrics["wal.checkpoint_bytes"] = float64(s.ckptBytes)
}

// snapStore adapts one snap.Batch of the mirror to the writers' edgeStore.
type snapStore struct {
	m *mirror
	b *snap.Batch
}

func (s snapStore) AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error) {
	return s.m.addEdge(s.b, src, dst, label, props["time"].(int64))
}

func (s snapStore) DeleteEdge(e aplus.EdgeID) error { return s.b.DeleteEdge(e) }

// commitSingle applies w's next op through the manager's group-commit
// path, the one DB.AddEdge takes minus the WAL.
func (m *mirror) commitSingle(w *writer) error {
	return m.mgr.CommitSingle(func(b *snap.Batch) error { return w.apply(snapStore{m, b}) })
}

// commitBatch applies w's next n ops as one in-memory batch, DB.Batch
// minus the WAL.
func (m *mirror) commitBatch(w *writer, n int) error {
	b := m.mgr.Begin()
	defer b.Abort() // a no-op after Commit
	for i := 0; i < n; i++ {
		if err := w.apply(snapStore{m, b}); err != nil {
			return err
		}
	}
	return b.Commit()
}

// mapOf builds a one-entry property map of whatever value type the callee
// wants; see mirror.addEdge.
func mapOf[V any](k string, v V) map[string]V { return map[string]V{k: v} }
