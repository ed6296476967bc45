package exec

// Pipeline-deep work stealing. Morsel parallelism partitions only the root
// scan, so one hub vertex whose first-EXTEND adjacency list dwarfs the
// morsel size serializes its whole pipeline tail on the worker that drew the
// morsel. When operator 1 is a plain EXTEND (one list, no sorted segment),
// the owner re-partitions an oversized decoded list into sub-morsels
// published to a shared lock-free queue; idle workers pop them and run their
// entries through their own pipeline tail. Each cell carries the sub-range's
// decoded entries along with the binding snapshot, so a thief starts useful
// work immediately — it never re-fetches or re-decodes the (possibly huge)
// source list.
//
// The metric merge proof of morsel parallelism extends unchanged: every
// (root tuple, op-1 list entry) pair is processed exactly once — either
// inline by the owner or by exactly one thief — and the list fetch is
// charged once by the owner when it decodes, so counts, i-cost, and
// PredEvals stay bit-identical to the unstolen run at any worker count.

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/aplusdb/aplus/internal/storage"
)

// stealQueueCap is the bounded steal-queue capacity (a power of two). A full
// queue degrades gracefully: the owner processes unpublishable tail chunks
// inline, exactly as if they had never been split off.
const stealQueueCap = 256

// stealSplitFactor: an op-1 list is split only when it is at least this many
// thresholds long, so near-threshold lists don't pay the publish overhead
// for a single stealable chunk.
const stealSplitFactor = 2

// stealMaxChunks bounds how many sub-morsels one list splits into: chunks
// grow past the threshold for very long lists, keeping the queue (and the
// per-chunk publish/copy overhead) bounded while still spreading the list
// across many more consumers than one.
const stealMaxChunks = 64

// stealCell is one slot of the queue. Task data is stored inline — the
// binding snapshot plus the sub-range's decoded neighbour/edge entries, in
// slices reused across publishes — so the steady-state publish/pop cycle
// allocates nothing once the cells have grown to the working chunk size.
type stealCell struct {
	seq  atomic.Uint64
	v    []storage.VertexID
	e    []storage.EdgeID
	nbrs []uint32
	eids []uint64
}

// stealQueue is a bounded lock-free MPMC ring (Vyukov's array queue): each
// cell carries a sequence number that encodes whether it is free for the
// next producer or holds data for the next consumer, so both ends proceed
// with one CAS and no locks.
//
// active counts the workers inside root ranges, the only publishers. A
// worker with nothing to pop blocks on cond while active is non-zero;
// waiters lets publishers and the last leaver skip the lock when nobody
// waits. A waiter counts itself before it checks the queue and active, and
// a waker checks waiters after its push or decrement, so at least one of
// the two sees the other and no wake-up is lost.
type stealQueue struct {
	cells []stealCell
	mask  uint64
	enq   atomic.Uint64
	deq   atomic.Uint64

	active  atomic.Int64
	waiters atomic.Int64
	mu      sync.Mutex
	cond    sync.Cond
}

// newStealQueue builds a queue of capacity cells (must be a power of two)
// whose inline bindings hold numV vertex and numE edge slots, carved from
// two flat arrays so that a query pays four allocations, not 2×capacity.
func newStealQueue(capacity, numV, numE int) *stealQueue {
	q := &stealQueue{cells: make([]stealCell, capacity), mask: uint64(capacity - 1)}
	q.cond.L = &q.mu
	vs := make([]storage.VertexID, capacity*numV)
	es := make([]storage.EdgeID, capacity*numE)
	for i := range q.cells {
		q.cells[i].seq.Store(uint64(i))
		q.cells[i].v = vs[i*numV : (i+1)*numV : (i+1)*numV]
		q.cells[i].e = es[i*numE : (i+1)*numE : (i+1)*numE]
	}
	return q
}

// tryPush publishes one sub-morsel: the binding under which the op-1 list
// was fetched plus the sub-range's decoded entries. It reports false when
// the queue is full (the caller processes the range inline instead).
func (q *stealQueue) tryPush(b *Binding, nbrs []uint32, eids []uint64) bool {
	pos := q.enq.Load()
	for {
		cell := &q.cells[pos&q.mask]
		seq := cell.seq.Load()
		switch d := int64(seq - pos); {
		case d == 0:
			if q.enq.CompareAndSwap(pos, pos+1) {
				copy(cell.v, b.V)
				copy(cell.e, b.E)
				cell.nbrs = append(cell.nbrs[:0], nbrs...)
				cell.eids = append(cell.eids[:0], eids...)
				cell.seq.Store(pos + 1)
				return true
			}
			pos = q.enq.Load()
		case d < 0:
			return false // full
		default:
			pos = q.enq.Load()
		}
	}
}

// tryPop claims the oldest published task, copying its binding snapshot
// into b and its entries into the caller's reusable buffers (the copies
// free the cell for the next producer before the task runs). It reports
// false when the queue is empty.
func (q *stealQueue) tryPop(b *Binding, nbrs *[]uint32, eids *[]uint64) bool {
	pos := q.deq.Load()
	for {
		cell := &q.cells[pos&q.mask]
		seq := cell.seq.Load()
		switch d := int64(seq - (pos + 1)); {
		case d == 0:
			if q.deq.CompareAndSwap(pos, pos+1) {
				copy(b.V, cell.v)
				copy(b.E, cell.e)
				*nbrs = append((*nbrs)[:0], cell.nbrs...)
				*eids = append((*eids)[:0], cell.eids...)
				cell.seq.Store(pos + q.mask + 1)
				return true
			}
			pos = q.deq.Load()
		case d < 0:
			return false // empty
		default:
			pos = q.deq.Load()
		}
	}
}

// empty reports whether the oldest cell holds no published task. A pop in
// progress may make it report a task that is already gone; callers retry.
func (q *stealQueue) empty() bool {
	pos := q.deq.Load()
	return int64(q.cells[pos&q.mask].seq.Load()-(pos+1)) < 0
}

// enter counts a worker into a root range, where it may publish.
func (q *stealQueue) enter() { q.active.Add(1) }

// leave counts a worker out of its root range; the last one out wakes the
// waiters, which may then finish.
func (q *stealQueue) leave() {
	if q.active.Add(-1) == 0 {
		q.wake()
	}
}

// quiet reports whether no worker is inside a root range, so nothing more
// can be published.
func (q *stealQueue) quiet() bool { return q.active.Load() == 0 }

// wake releases every worker blocked in wait.
func (q *stealQueue) wake() {
	if q.waiters.Load() == 0 {
		return
	}
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// wait blocks until the queue holds a task, no root range is active, or
// stop is set. Whoever sets stop must call wake afterwards.
func (q *stealQueue) wait(stop *atomic.Bool) {
	q.mu.Lock()
	q.waiters.Add(1)
	for q.empty() && !q.quiet() && !stop.Load() {
		q.cond.Wait()
	}
	q.waiters.Add(-1)
	q.mu.Unlock()
}

// stealPoint reports the plan's stealable operator: operator 1 when it is a
// plain single-list EXTEND without a sorted segment and lies before the sink
// boundary (a folded op 1 is pure arithmetic — nothing worth stealing).
func (p *Plan) stealPoint(stop int) *ExtendIntersectOp {
	if stop < 2 || len(p.Ops) < 2 {
		return nil
	}
	op, ok := p.Ops[1].(*ExtendIntersectOp)
	if !ok || len(op.Lists) != 1 || op.Lists[0].Seg != nil {
		return nil
	}
	return op
}

// stealRun is one worker's view of a stealing execution: the root-tuple
// continuation that replaces pl.next[1] (splitting oversized op-1 lists)
// and the executor for sub-morsels popped from the queue. The continuation
// closure is built once per run so the per-tuple path allocates nothing;
// snbrs/seids are the worker's reusable landing buffers for popped tasks.
type stealRun struct {
	pl        *pipeline
	op        *ExtendIntersectOp
	sq        *stealQueue
	threshold int
	rootNext  func() bool
	snbrs     []uint32
	seids     []uint64
}

func newStealRun(pl *pipeline, op *ExtendIntersectOp, sq *stealQueue, threshold int) *stealRun {
	s := &stealRun{pl: pl, op: op, sq: sq, threshold: threshold}
	s.rootNext = s.extend
	return s
}

// extend consumes one root tuple in place of step(1): it replicates the
// plain-EXTEND loop of ExtendIntersectOp.run, but publishes the tail of an
// oversized list as sub-morsels before iterating its own share. The traced
// twin adds op-1 span attribution exactly where stepTraced(1) would have.
func (s *stealRun) extend() bool {
	pl := s.pl
	if pl.tr == nil {
		return s.extendWork()
	}
	sp := &pl.tr.spans[1]
	sp.Calls++
	rt := pl.rt
	icost0, preds0 := rt.ICost, rt.PredEvals
	t0 := time.Now()
	ok := s.extendWork()
	sp.Nanos += int64(time.Since(t0))
	sp.ICost += rt.ICost - icost0
	sp.PredEvals += rt.PredEvals - preds0
	return ok
}

func (s *stealRun) extendWork() bool {
	pl := s.pl
	rt, b := pl.rt, pl.b
	r := &s.op.Lists[0]
	sc := pl.scratch.op(1)
	sc.ensureLists(1)
	// The owner charges the full fetch once, exactly like the serial path;
	// thieves receive decoded entries and charge nothing for them.
	sc.decode(0, r.fetchWith(rt, sc, 0, b, r.Codes))
	f := sc.lists[0]
	total := len(f.nbrs)
	localEnd := total
	inlineFrom := total
	if total >= stealSplitFactor*s.threshold {
		chunk := s.threshold
		if c := (total + stealMaxChunks - 1) / stealMaxChunks; c > chunk {
			chunk = c
		}
		localEnd = chunk
		for off := chunk; off < total; off += chunk {
			hi := off + chunk
			if hi > total {
				hi = total
			}
			if !s.sq.tryPush(b, f.nbrs[off:hi], f.eids[off:hi]) {
				inlineFrom = off // queue full: keep the rest inline
				break
			}
		}
		s.sq.wake()
	}
	next := pl.next[2]
	for i := 0; i < localEnd; i++ {
		b.V[s.op.TargetSlot] = storage.VertexID(f.nbrs[i])
		b.E[r.EdgeSlot] = storage.EdgeID(f.eids[i])
		if !next() {
			return false
		}
	}
	for i := inlineFrom; i < total; i++ {
		b.V[s.op.TargetSlot] = storage.VertexID(f.nbrs[i])
		b.E[r.EdgeSlot] = storage.EdgeID(f.eids[i])
		if !next() {
			return false
		}
	}
	return true
}

// runStolen executes one stolen sub-morsel whose binding snapshot and
// decoded entries have already been popped into the pipeline's binding and
// the run's landing buffers: bind each entry and run the downstream chain.
func (s *stealRun) runStolen() bool {
	pl := s.pl
	if pl.tr == nil {
		return s.stolenWork()
	}
	tr, rt := pl.tr, pl.rt
	tr.Stolen++
	icost0, preds0 := rt.ICost, rt.PredEvals
	t0 := time.Now()
	ok := s.stolenWork()
	d := int64(time.Since(t0))
	di, dp := rt.ICost-icost0, rt.PredEvals-preds0
	// Stolen work runs outside root.runRange, which the worker loop uses to
	// measure the root span; record it inclusively under both the root and
	// op-1 spans — without an op-1 call increment, the owner counted the
	// tuple — so the merged spans telescope bit-identically to an unstolen
	// run while the executing worker keeps the attribution.
	tr.spans[0].Nanos += d
	tr.spans[0].ICost += di
	tr.spans[0].PredEvals += dp
	tr.spans[1].Nanos += d
	tr.spans[1].ICost += di
	tr.spans[1].PredEvals += dp
	return ok
}

func (s *stealRun) stolenWork() bool {
	pl := s.pl
	b := pl.b
	next := pl.next[2]
	eSlot := s.op.Lists[0].EdgeSlot
	for i, nbr := range s.snbrs {
		b.V[s.op.TargetSlot] = storage.VertexID(nbr)
		b.E[eSlot] = storage.EdgeID(s.seids[i])
		if !next() {
			return false
		}
	}
	return true
}
