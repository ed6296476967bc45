// Package snap provides epoch-based snapshot isolation over the A+ index
// store. The current database state is one immutable Snapshot — a frozen
// base Store (graph + primary + secondary indexes), the snapshot's graph
// (which may extend the base's build graph), and a Delta overlay of
// committed-but-unmerged writes — published through an atomic pointer.
//
// Readers pin the current snapshot with Manager.Acquire (one atomic load +
// one atomic increment; no mutex anywhere on the read path) and release it
// when done; a pinned snapshot never changes, so a query observes one
// consistent state for its whole run, bit-identical no matter how many
// commits or merges land concurrently. Writers batch their changes
// (Manager.Begin / Batch.Commit): a batch stages appends on a copy-on-write
// clone of the graph and a successor Delta, then publishes the new snapshot
// with one atomic swap — readers never block on writers and writers never
// wait for readers to drain. A background merger folds large deltas back
// into block-packed CSR form (Manager.Merge) and republishes, rebasing any
// ops committed during the fold. Superseded epochs are retired once their
// last reader unpins (Manager.Stats observability; memory itself is
// reclaimed by the garbage collector).
package snap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/obs"
	"github.com/aplusdb/aplus/internal/storage"
)

// Options configure a Manager.
type Options struct {
	// MergeThreshold is the number of pending delta ops after which a
	// commit schedules a merge (<= 0 = DefaultMergeThreshold).
	MergeThreshold int
	// SyncMerge folds deltas synchronously inside the committing goroutine
	// instead of in the background (deterministic tests, benchmarks of the
	// fold itself).
	SyncMerge bool

	// IncrementalDirtyFraction tunes when a fold patches the frozen base
	// incrementally instead of rebuilding it: the delta's dirty (direction,
	// owner) lists divided by the 2·|V| primary lists must not exceed it.
	// 0 uses index.DefaultIncrementalDirtyFraction; a negative value
	// disables incremental folds entirely (every fold is a full rebuild);
	// >= 1 always attempts the incremental path.
	IncrementalDirtyFraction float64

	// WALAppend, when set, makes the manager durable: it is invoked under
	// the writer mutex immediately before every publication that carries
	// logged work (batch ops or a DDL descriptor), and the publication is
	// aborted when it returns an error — the durability point is "record
	// accepted". The hook must be fast relative to the fold threshold but
	// may block (it typically fsyncs).
	WALAppend func(Record) error
	// AfterFold, when set, is invoked after every successful Merge with
	// the delta-free snapshot the fold observed or published, and no
	// manager locks held — the checkpointing trigger. The snapshot may
	// already be superseded by newer commits; it is immutable either way,
	// so serializing it is always safe and always covers every record up
	// to its Seq. An AfterFold error is NON-FATAL: the fold itself already
	// published and the delta overlay keeps serving, so the manager only
	// records the failure (Stats) and retries the hook in the background
	// with capped exponential backoff + jitter until it succeeds or the
	// manager closes.
	AfterFold func(*Snapshot) error
	// RetryBackoff is the initial delay between background retries of a
	// failed fold or AfterFold hook (<= 0 = DefaultRetryBackoff). Each
	// failure doubles it, capped at 50x, with ±50% jitter.
	RetryBackoff time.Duration
	// StartSeq and StartEpoch initialize the record-sequence and epoch
	// counters, so a recovered manager continues the numbering of the
	// checkpoint it was restored from.
	StartSeq   uint64
	StartEpoch uint64

	// WALTailBytes, when set, reports the write-ahead-log bytes past the
	// newest checkpoint's coverage — the portion recovery must replay.
	// Commits then schedule a fold as soon as the tail reaches
	// FoldWALBytes even before MergeThreshold pending ops accumulate:
	// every fold checkpoints (AfterFold), which re-covers the tail, so
	// recovery time stays bounded even under vertex-heavy or
	// property-heavy workloads whose op count grows slowly relative to
	// record bytes. The tail — not the whole file — is the right trigger:
	// truncation retains the prefix covering the fallback checkpoint, so
	// total size lags one checkpoint behind and would re-trigger a
	// redundant fold right after every budget crossing.
	WALTailBytes func() int64
	// FoldWALBytes is the WAL tail size that triggers a fold when
	// WALTailBytes is set (<= 0 = DefaultFoldWALBytes).
	FoldWALBytes int64
}

// DefaultMergeThreshold is the number of pending delta ops (inserts plus
// deletes in the current snapshot's overlay) at which a commit schedules a
// fold into a fresh base store.
const DefaultMergeThreshold = 4096

// DefaultFoldWALBytes bounds the write-ahead log between folds when the
// manager is durable and no explicit budget is configured.
const DefaultFoldWALBytes = 64 << 20

// DefaultRetryBackoff is the initial delay between background retries of a
// failed fold or checkpoint; retryBackoffCap bounds the doubling.
const (
	DefaultRetryBackoff = 100 * time.Millisecond
	retryBackoffCapMult = 50
)

func (o Options) threshold() int {
	if o.MergeThreshold <= 0 {
		return DefaultMergeThreshold
	}
	return o.MergeThreshold
}

func (o Options) retryBackoff() time.Duration {
	if o.RetryBackoff <= 0 {
		return DefaultRetryBackoff
	}
	return o.RetryBackoff
}

// Snapshot is one immutable epoch of the database: the frozen base store,
// the snapshot's graph, and the delta overlay. All accessors are safe from
// any number of goroutines for as long as the snapshot is pinned.
type Snapshot struct {
	epoch uint64
	// seq is the sequence number of the last WAL record this snapshot
	// includes (0 when the manager is not durable). Folds and merges
	// publish new epochs without advancing it; logged commits and DDL do.
	seq uint64
	// baseGen identifies the frozen base the delta is expressed against;
	// merges and reconfigurations bump it, commits preserve it.
	baseGen uint64
	store   *index.Store
	graph   *storage.Graph
	delta   *index.Delta
	mgr     *Manager

	pins       atomic.Int64
	superseded atomic.Bool
	retired    atomic.Bool
}

// Epoch returns the snapshot's publication number (monotonically
// increasing across commits, merges, and DDL).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Seq returns the sequence number of the last WAL record included in this
// snapshot (0 for non-durable managers). A checkpoint of this snapshot
// covers exactly the records with Seq <= this value.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Store returns the frozen base store. It must never be mutated.
func (s *Snapshot) Store() *index.Store { return s.store }

// Graph returns the snapshot's graph, a superset of the base store's build
// graph. It must never be mutated.
func (s *Snapshot) Graph() *storage.Graph { return s.graph }

// Delta returns the snapshot's overlay of unmerged writes (never nil; may
// be empty).
func (s *Snapshot) Delta() *index.Delta { return s.delta }

// Release unpins the snapshot. Each Acquire must be paired with exactly one
// Release; after Release the snapshot must not be read through again.
func (s *Snapshot) Release() {
	if s.pins.Add(-1) == 0 && s.superseded.Load() {
		s.retire()
	}
}

func (s *Snapshot) retire() {
	if s.retired.CompareAndSwap(false, true) {
		s.mgr.retired.Add(1)
	}
}

// Manager owns the snapshot chain: it publishes new epochs (commits,
// merges, DDL) under a writer mutex and hands the current epoch to readers
// with no locking at all.
type Manager struct {
	opts Options

	// mu serializes all publications: batches hold it from Begin to
	// Commit/Abort (grouped commit), merges and DDL take it briefly to
	// swap in their result. Readers never touch it.
	mu  sync.Mutex
	cur atomic.Pointer[Snapshot]
	// epoch and baseGen are the publication counters, and seq the logged-
	// record counter, all guarded by mu.
	epoch   uint64
	seq     uint64
	baseGen uint64

	// mergeMu serializes merges and DDL against each other (their builds
	// run outside mu so commits keep flowing).
	mergeMu sync.Mutex
	merging atomic.Bool

	// closeMu guards closed and the merge WaitGroup increment so Close can
	// wait for the in-flight background fold without racing a new one.
	// closeCh is closed alongside, interrupting a merger sleeping out a
	// retry backoff.
	closeMu sync.Mutex
	closed  bool
	closeCh chan struct{}
	mergeWG sync.WaitGroup

	retired atomic.Int64
	merges  atomic.Int64
	// incFolds, lastFoldNanos, and lastFoldDirty observe the incremental
	// fold path: how many published folds were incremental patches, how
	// long the most recent fold's build took, and how many dirty
	// (direction, owner) lists it carried.
	incFolds      atomic.Int64
	lastFoldNanos atomic.Int64
	lastFoldDirty atomic.Int64
	// foldHist accumulates every published fold's build duration.
	foldHist obs.Histogram
	// mergeErr records the most recent background fold failure (cleared on
	// the next success) so it is observable via Stats; synchronous callers
	// (Flush) get the error returned directly.
	mergeErr atomic.Pointer[string]
	// afterFoldErr records the most recent AfterFold (checkpoint) failure;
	// while set, the background merger keeps retrying the hook with
	// backoff. mergeRetries counts those retries and retryBackoff holds
	// the delay currently in force (0 when healthy) — both for Stats.
	afterFoldErr atomic.Pointer[string]
	mergeRetries atomic.Int64
	retryBackoff atomic.Int64

	// walFoldTail is the WAL tail size at which the last tail-triggered
	// fold was scheduled (walFoldDue's once-per-budget-increment arming).
	walFoldTail atomic.Int64

	// gqMu guards the singleton-commit group queue (CommitSingle): waiting
	// requests and whether a leader is currently draining them.
	gqMu     sync.Mutex
	gq       []*commitReq
	gqLeader bool
	// groupCommits counts publications that coalesced 2+ singleton commits
	// into one batch (one WAL record, one fsync); groupedOps counts the
	// singleton ops those publications carried.
	groupCommits atomic.Int64
	groupedOps   atomic.Int64
}

// NewManager builds the primary indexes over g under cfg and publishes
// epoch 1. The graph must not be mutated by the caller afterwards.
func NewManager(g *storage.Graph, cfg index.Config, o Options) (*Manager, error) {
	s, err := index.NewStore(g, cfg)
	if err != nil {
		return nil, err
	}
	return NewManagerFromStore(s, g, o), nil
}

// NewManagerFromStore publishes the first snapshot over an already-built
// frozen store (a decoded checkpoint image, typically) without rebuilding
// anything. The epoch and record-sequence counters continue from
// o.StartEpoch/o.StartSeq. Neither st nor g may be mutated by the caller
// afterwards.
func NewManagerFromStore(st *index.Store, g *storage.Graph, o Options) *Manager {
	m := &Manager{opts: o, closeCh: make(chan struct{})}
	m.epoch = o.StartEpoch
	m.seq = o.StartSeq
	m.mu.Lock()
	m.publishBaseLocked(st, g, index.NewDelta())
	m.mu.Unlock()
	return m
}

// Close stops the background merger and waits for an in-flight fold to
// finish. It does not flush pending deltas (they live in memory; durable
// callers replay them from the WAL on the next open). The manager must not
// be used for writes afterwards; reads of already-pinned snapshots remain
// valid.
func (m *Manager) Close() {
	m.closeMu.Lock()
	if !m.closed {
		m.closed = true
		close(m.closeCh)
	}
	m.closeMu.Unlock()
	m.mergeWG.Wait()
}

// Acquire pins and returns the current snapshot. The read path is two
// atomic operations; there is no lock for a writer to hold.
func (m *Manager) Acquire() *Snapshot {
	s := m.cur.Load()
	s.pins.Add(1)
	return s
}

// Current returns the current snapshot without pinning it — for metadata
// peeks (epoch, pending counts) only, never for reading data through.
func (m *Manager) Current() *Snapshot { return m.cur.Load() }

// publishLocked swaps ns in as the current snapshot. Callers hold mu and
// have set ns.baseGen.
func (m *Manager) publishLocked(ns *Snapshot) {
	m.epoch++
	ns.epoch = m.epoch
	// Every publication under mu includes all records logged so far:
	// logged commits and DDL bump m.seq just before publishing, folds and
	// merges republish existing state without logging.
	ns.seq = m.seq
	ns.mgr = m
	old := m.cur.Swap(ns)
	if old != nil {
		old.superseded.Store(true)
		if old.pins.Load() == 0 {
			old.retire()
		}
	}
}

// publishBaseLocked publishes a snapshot with a brand-new frozen base
// (initial build, merge, reconfigure), bumping the base generation.
func (m *Manager) publishBaseLocked(st *index.Store, g *storage.Graph, d *index.Delta) {
	m.baseGen++
	m.publishLocked(&Snapshot{baseGen: m.baseGen, store: st, graph: g, delta: d})
}

// Stats is a point-in-time observation of the snapshot chain.
type Stats struct {
	// Epoch is the current snapshot's publication number.
	Epoch uint64
	// Pins is the current snapshot's reader count (transient).
	Pins int64
	// PendingOps is the current delta's buffered insert+delete count.
	PendingOps int
	// RetiredEpochs counts superseded snapshots whose last reader has
	// unpinned (or that had no readers when superseded).
	RetiredEpochs int64
	// Merges counts delta folds published since the manager was built.
	Merges int64
	// FoldsTotal is Merges under its clearer name: every published fold,
	// incremental or full, background or synchronous.
	FoldsTotal int64
	// IncrementalFolds counts published folds that patched the frozen base
	// incrementally (O(delta)) instead of rebuilding it (O(E)).
	IncrementalFolds int64
	// LastFoldDuration is the build time of the most recent fold attempt.
	LastFoldDuration time.Duration
	// LastFoldDirtyOwners is the number of dirty (direction, owner) lists
	// the most recent fold carried.
	LastFoldDirtyOwners int
	// GroupCommits counts publications that coalesced 2+ concurrent
	// singleton commits into one batch (one WAL record, one fsync);
	// GroupedOps is the total number of singleton ops they carried.
	GroupCommits int64
	GroupedOps   int64
	// LastMergeError is the most recent background fold failure ("" when
	// the last fold succeeded). A persistent error here means the delta
	// cannot currently be folded and pending ops will keep accumulating.
	LastMergeError string
	// MergeRetries counts background retries of a failed fold or
	// AfterFold (checkpoint) hook; RetryBackoff is the delay currently in
	// force between them (0 when the merger is healthy).
	MergeRetries int64
	RetryBackoff time.Duration
	// FoldHist is the latency histogram of every published fold's build.
	FoldHist obs.HistStats
}

// Stats reports chain observability counters.
func (m *Manager) Stats() Stats {
	s := m.cur.Load()
	folds := m.merges.Load()
	st := Stats{
		Epoch:               s.epoch,
		Pins:                s.pins.Load(),
		PendingOps:          s.delta.Pending(),
		RetiredEpochs:       m.retired.Load(),
		Merges:              folds,
		FoldsTotal:          folds,
		IncrementalFolds:    m.incFolds.Load(),
		LastFoldDuration:    time.Duration(m.lastFoldNanos.Load()),
		LastFoldDirtyOwners: int(m.lastFoldDirty.Load()),
		GroupCommits:        m.groupCommits.Load(),
		GroupedOps:          m.groupedOps.Load(),
	}
	if e := m.mergeErr.Load(); e != nil {
		st.LastMergeError = *e
	}
	st.MergeRetries = m.mergeRetries.Load()
	st.RetryBackoff = time.Duration(m.retryBackoff.Load())
	st.FoldHist = m.foldHist.Snapshot()
	return st
}

// Batch stages a group of writes against a private copy-on-write clone of
// the current snapshot and publishes them atomically on Commit (grouped
// commit: one snapshot swap per batch, however many ops it carries).
// A Batch holds the manager's writer mutex from Begin until Commit or
// Abort, so batches from different goroutines serialize; readers are
// unaffected throughout. Batches may only add entities, set properties on
// entities they added, and delete edges — mutating pre-existing entities'
// properties would race pinned readers.
type Batch struct {
	m    *Manager
	base *Snapshot
	g    *storage.Graph
	db   *index.DeltaBuilder
	done bool
	// ops records every successfully staged operation for the write-ahead
	// log, in staging order; only populated when the manager is durable.
	ops []LoggedOp
	// stageErr poisons the batch: a failed staging op can leave the graph
	// clone half-staged (e.g. an edge appended but its property set
	// rejected, so it never reached the delta builder), and publishing
	// that state would let scan-anchored plans see entities index-anchored
	// plans do not. Commit refuses once set, even if the caller swallowed
	// the op's error.
	stageErr error
}

// Begin starts a batch, taking the writer mutex until Commit or Abort.
func (m *Manager) Begin() *Batch {
	m.mu.Lock()
	s := m.cur.Load()
	g := s.graph.Clone()
	return &Batch{
		m:    m,
		base: s,
		g:    g,
		db:   index.NewDeltaBuilder(s.delta, s.store.Primary(), g),
	}
}

// AddVertex appends a vertex with properties to the staged state. A
// property error poisons the batch (see Commit).
func (b *Batch) AddVertex(label string, props map[string]storage.Value) (storage.VertexID, error) {
	v := b.g.AddVertex(label)
	for k, val := range props {
		if err := b.g.SetVertexProp(v, k, val); err != nil {
			return v, b.poison(err)
		}
	}
	if b.m.opts.WALAppend != nil {
		b.ops = append(b.ops, LoggedOp{Kind: OpAddVertex, Label: label, V: v, Props: sortedProps(props)})
	}
	return v, nil
}

// AddEdge appends an edge with properties to the staged state and buffers
// it in the delta overlay (properties are set before buffering, since
// partition codes may derive from them). A property error poisons the
// batch: the appended edge never reaches the overlay, so publishing would
// desynchronize scans from index fetches (see Commit).
func (b *Batch) AddEdge(src, dst storage.VertexID, label string, props map[string]storage.Value) (storage.EdgeID, error) {
	e, err := b.g.AddEdge(src, dst, label)
	if err != nil {
		return 0, err // nothing staged; the batch stays usable
	}
	for k, val := range props {
		if err := b.g.SetEdgeProp(e, k, val); err != nil {
			return e, b.poison(err)
		}
	}
	b.db.Insert(e)
	if b.m.opts.WALAppend != nil {
		b.ops = append(b.ops, LoggedOp{Kind: OpAddEdge, Label: label, Src: src, Dst: dst, E: e, Props: sortedProps(props)})
	}
	return e, nil
}

// poison records the first staging failure and returns it.
func (b *Batch) poison(err error) error {
	if b.stageErr == nil {
		b.stageErr = err
	}
	return err
}

// DeleteEdge stages an edge deletion.
func (b *Batch) DeleteEdge(e storage.EdgeID) error {
	if int(e) >= b.g.NumEdges() {
		return fmt.Errorf("snap: edge %d out of range", e)
	}
	b.db.Delete(e)
	if b.m.opts.WALAppend != nil {
		b.ops = append(b.ops, LoggedOp{Kind: OpDeleteEdge, E: e})
	}
	return nil
}

// Graph exposes the staged graph clone for property reads during staging.
// Callers must not mutate it directly.
func (b *Batch) Graph() *storage.Graph { return b.g }

// Abort discards the staged state and releases the writer mutex.
func (b *Batch) Abort() {
	if b.done {
		return
	}
	b.done = true
	b.m.mu.Unlock()
}

// Commit publishes the staged state as the next snapshot epoch and
// releases the writer mutex. When the staged state cannot be expressed as
// an overlay — an edge carries a categorical or sort value unknown to the
// frozen base, or the batch interned a label the base catalog has never
// seen (the planner resolves label names against the base, so a buffered
// commit would leave such entities invisible) — the whole pending state,
// this batch plus any earlier unmerged delta, is folded into a fresh base
// instead, still without blocking readers. Crossing the merge threshold
// schedules a fold (background by default, inline under Options.SyncMerge).
func (b *Batch) Commit() error {
	if b.done {
		return fmt.Errorf("snap: batch already finished")
	}
	b.done = true
	m := b.m
	if b.stageErr != nil {
		m.mu.Unlock()
		return fmt.Errorf("snap: batch not committed, a staged op failed: %w", b.stageErr)
	}
	// logOps is the durability point: the batch's record must be on disk
	// before the publication makes it visible. It runs after every
	// fallible step — a logged-but-unpublished record would be replayed as
	// a phantom commit on recovery — and a hook failure aborts the commit
	// with the in-memory state untouched.
	logOps := func() error {
		if len(b.ops) == 0 {
			return nil
		}
		if err := m.logLocked(Record{Ops: b.ops}); err != nil {
			return fmt.Errorf("snap: batch not committed, WAL append failed: %w", err)
		}
		return nil
	}
	baseCat := b.base.store.Graph().Catalog()
	grewCatalog := b.g.Catalog().NumVertexLabels() > baseCat.NumVertexLabels() ||
		b.g.Catalog().NumEdgeLabels() > baseCat.NumEdgeLabels()
	if b.db.Impossible() || grewCatalog {
		d := b.db.Freeze()
		b.g.ApplyTombstones(d.DeletedEdges())
		st, err := b.base.store.CloneRebuilt(b.g, b.base.store.Primary().Config())
		if err != nil {
			m.mu.Unlock()
			return err
		}
		if err := logOps(); err != nil {
			m.mu.Unlock()
			return err
		}
		m.publishBaseLocked(st, b.g, index.NewDelta())
		m.merges.Add(1)
		m.mu.Unlock()
		return nil
	}
	d := b.db.Freeze()
	if err := logOps(); err != nil {
		m.mu.Unlock()
		return err
	}
	m.publishLocked(&Snapshot{baseGen: b.base.baseGen, store: b.base.store, graph: b.g, delta: d})
	m.mu.Unlock()
	if d.Pending() >= m.opts.threshold() || m.walFoldDue(d.Pending()) {
		m.scheduleMerge()
	}
	return nil
}

// walFoldDue reports whether the write-ahead log's un-checkpointed tail
// has outgrown its budget and there is pending work a fold (and the
// checkpoint it triggers) could re-cover. A trigger arms only once per
// budget increment: if the fold it scheduled cannot shrink the tail —
// recovery replay (checkpoints gated until SetReady) or a persistently
// failing checkpoint writer — the next trigger waits for another full
// budget of growth instead of re-scheduling a fold on every commit.
func (m *Manager) walFoldDue(pending int) bool {
	if pending == 0 || m.opts.WALTailBytes == nil {
		return false
	}
	limit := m.opts.FoldWALBytes
	if limit <= 0 {
		limit = DefaultFoldWALBytes
	}
	tail := m.opts.WALTailBytes()
	last := m.walFoldTail.Load()
	if tail < last {
		// The tail shrank (a checkpoint re-covered it): re-arm from zero.
		m.walFoldTail.CompareAndSwap(last, 0)
		last = 0
	}
	if tail >= limit && tail-last >= limit {
		m.walFoldTail.Store(tail)
		return true
	}
	return false
}
