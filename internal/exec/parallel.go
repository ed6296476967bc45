package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMorselSize is the largest number of root-scan positions handed to
// a worker at a time, and the morsel size of a table too large to split
// finer (see morselSize). Morsels are small enough to balance skewed
// pipelines (one hub vertex can dominate a morsel) and large enough to
// amortize the shared cursor increment.
const DefaultMorselSize = 1024

// morselsPerWorker is how many morsels per worker an automatically sized
// morsel aims for, so that every worker stays busy until the scan's end
// even when a few morsels carry most of the work.
const morselsPerWorker = 32

// morselSize sizes the morsels of a scan over size positions run by
// workers workers: floor(size / (morselsPerWorker × workers)), clamped to
// [1, DefaultMorselSize]. Rounding down makes at least morselsPerWorker
// morsels per worker whenever the table has that many positions and the cap
// allows, so an ID-anchored scan of a few hundred positions still splits
// across every worker.
func morselSize(size, workers int) int {
	per := morselsPerWorker * max(workers, 1)
	return min(max(size/per, 1), DefaultMorselSize)
}

// partitionableOp is implemented by root operators whose input is a dense
// table of scan positions that can be split into independent ranges
// (morsels). Only the first operator of a plan is ever partitioned; the
// rest of the pipeline runs unchanged inside each worker.
type partitionableOp interface {
	Op
	// tableSize returns the number of scan positions.
	tableSize(rt *Runtime) int
	// runRange behaves like run restricted to scan positions [lo, hi).
	// Running every range of a partition of [0, tableSize) exactly once
	// produces the same multiset of extensions as run.
	runRange(rt *Runtime, sc *opScratch, b *Binding, lo, hi int, next func() bool) bool
}

var (
	_ partitionableOp = (*ScanVertexOp)(nil)
	_ partitionableOp = (*ScanEdgeOp)(nil)
)

// ParallelOptions configure morsel-driven execution.
type ParallelOptions struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// MorselSize is the scan-range size per work unit; <= 0 means sized to
	// the scanned range, at most DefaultMorselSize (see morselSize).
	MorselSize int
	// OnWorkerStart, when set, runs at the start of every worker goroutine
	// and returns a teardown called when the worker exits. Callers use it to
	// tag worker goroutines (e.g. so writes issued from inside a streaming
	// callback can be detected and rejected).
	OnWorkerStart func() func()
	// InjectWorkerFault, when set, runs once per worker goroutine (and once,
	// as worker 0, on the serial fallback) after the panic recovery is
	// installed. It exists so tests can inject a panic into a live worker
	// and assert the pool converts it to a *PanicError instead of crashing.
	InjectWorkerFault func(worker int)
	// DisableSteal turns off pipeline-deep work stealing (see steal.go),
	// leaving root-scan morsel partitioning only. Counts and metrics are
	// bit-identical either way; parity tests use this to prove it.
	DisableSteal bool
}

func (o ParallelOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// morsel returns the morsel size for a scan of size positions.
func (o ParallelOptions) morsel(size, workers int) int {
	if o.MorselSize <= 0 {
		return morselSize(size, workers)
	}
	return o.MorselSize
}

// CountParallel executes the plan with a morsel-driven worker pool and
// returns the number of matches. Each worker runs the operator pipeline
// (with the same count pushdown as the serial path) over its own Binding,
// Runtime and Scratch arena; per-worker counts and ICost/PredEvals are
// merged into rt after the barrier. Because every morsel is processed
// exactly once, the counters are sums, and folding charges the i-cost
// enumeration would have, the count and merged metrics are bit-identical
// to the serial path regardless of worker count. Plans whose root operator
// is not partitionable fall back to the serial path.
//
// A panic inside a worker (or the serial fallback) is recovered, converted
// to a *PanicError carrying the panicking goroutine's stack, and returned
// after the whole pool has drained; the first panic wins. When rt.Gov is
// set, workers additionally poll it at every morsel boundary and every
// Governor.CheckEvery sink tuples — a tripped governor parks the pool and
// CountParallel returns the partial count with a nil error; the caller
// inspects Governor.Reason to map the trip to its own error type.
func (p *Plan) CountParallel(rt *Runtime, o ParallelOptions) (int64, error) {
	workers := o.workers()
	if workers <= 1 {
		return p.countSerial(rt, o)
	}
	n, _, ran, err := p.runMorsels(rt, o, workers, true, p.countFoldStart(), nil, nil)
	if !ran {
		return p.countSerial(rt, o)
	}
	return n, err
}

// ExecuteParallel streams complete matches into emit from a morsel-driven
// worker pool. Calls to emit are serialized (emit never runs concurrently
// with itself) but arrive in a nondeterministic order; the binding passed
// to emit is worker-owned and reused — copy it if retaining. Returning
// false from emit stops all workers: no further emit calls occur, though
// in-flight workers may still read the indexes briefly before parking.
// Plans whose root operator is not partitionable fall back to the serial
// path. Panic conversion and governance polling behave as in CountParallel.
func (p *Plan) ExecuteParallel(rt *Runtime, o ParallelOptions, emit func(*Binding) bool) error {
	workers := o.workers()
	if workers <= 1 {
		return p.executeSerial(rt, o, emit)
	}
	var mu sync.Mutex
	stopped := false
	_, _, ran, err := p.runMorsels(rt, o, workers, false, len(p.Ops), nil, func(int) func(*Binding) bool {
		return func(b *Binding) bool {
			mu.Lock()
			defer mu.Unlock()
			if stopped {
				return false
			}
			if !emit(b) {
				stopped = true
				return false
			}
			return true
		}
	})
	if !ran {
		return p.executeSerial(rt, o, emit)
	}
	return err
}

// countSerial is the single-threaded CountParallel path with the same
// panic-to-error contract as the worker pool.
func (p *Plan) countSerial(rt *Runtime, o ParallelOptions) (n int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(r)
		}
	}()
	if o.InjectWorkerFault != nil {
		o.InjectWorkerFault(0)
	}
	return p.Count(rt), nil
}

// executeSerial is the single-threaded ExecuteParallel path with the same
// panic-to-error contract as the worker pool.
func (p *Plan) executeSerial(rt *Runtime, o ParallelOptions, emit func(*Binding) bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(r)
		}
	}()
	if o.InjectWorkerFault != nil {
		o.InjectWorkerFault(0)
	}
	p.Execute(rt, emit)
	return nil
}

// runMorsels partitions the root scan into morsels dispensed from a shared
// cursor and runs the tail pipeline in workers goroutines, each over its
// own Runtime-owned pipeline (binding + scratch arena + closure chain).
// With counting true the workers use the allocation-free counting sink at
// boundary stop (agg non-nil selects the aggregate fold; per-worker
// partials are merged exactly) and the summed count is returned; otherwise
// sinkFor returns the terminal emit for one worker, which must be safe for
// that worker's exclusive use. It reports ran=false (without spawning
// anything) when the plan's root is not partitionable, signalling a serial
// fallback.
//
// When the plan has a steal point (see steal.go) and stealing is enabled,
// workers additionally publish oversized op-1 adjacency tails as sub-
// morsels to a shared lock-free queue and drain it when the cursor runs
// dry: the queue counts workers inside root ranges (the only publishers),
// so once the cursor is exhausted, the counter is zero, and a pop comes up
// empty, no task can ever appear again and the worker may park. Until then
// a drained worker blocks in stealQueue.wait, woken by every publish, by
// the end of the last active root range, and by a stop.
//
// Worker panics are recovered inside the worker, park the pool via halt,
// and surface as the returned error (first panic wins). Per-worker metric
// counters accumulated before a panic or a governor trip are still merged
// into rt, so aborted executions report partial profiled metrics.
func (p *Plan) runMorsels(rt *Runtime, o ParallelOptions, workers int, counting bool, stop int, agg *AggSpec, sinkFor func(w int) func(*Binding) bool) (int64, AggResult, bool, error) {
	if len(p.Ops) == 0 {
		return 0, AggResult{}, false, nil
	}
	root, ok := p.Ops[0].(partitionableOp)
	if !ok {
		return 0, AggResult{}, false, nil
	}
	size := root.tableSize(rt)
	morsel := o.morsel(size, workers)
	numMorsels := (size + morsel - 1) / morsel
	if workers > numMorsels {
		workers = numMorsels
	}
	var sq *stealQueue
	var stealOp *ExtendIntersectOp
	if workers > 1 && !o.DisableSteal {
		if stealOp = p.stealPoint(stop); stealOp != nil {
			sq = newStealQueue(stealQueueCap, p.NumV, p.NumE)
		}
	}
	// Workers accumulate in their pipeline-local counters and store the
	// results here once at exit; wg.Wait orders those stores before the sum.
	counts := make([]int64, workers)
	aggs := make([]AggResult, workers)
	var (
		cursor  atomic.Int64
		stopAll atomic.Bool
		wg      sync.WaitGroup
		errMu   sync.Mutex
		poolErr error
	)
	// halt parks the pool: running workers see the flag at their next
	// check, and drained workers blocked in sq.wait are woken to see it.
	halt := func() {
		stopAll.Store(true)
		if sq != nil {
			sq.wake()
		}
	}
	rts := make([]*Runtime, workers)
	for w := 0; w < workers; w++ {
		wrt := &Runtime{Store: rt.Store, G: rt.G, Delta: rt.Delta, Gov: rt.Gov}
		if rt.Trace != nil {
			wrt.Trace = new(Trace)
		}
		rts[w] = wrt
		var emit func(*Binding) bool
		if !counting {
			emit = sinkFor(w)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Recover worker panics (whether from operator code, injected
			// faults, or a panicking emit that the caller chose not to
			// shield) so a poisoned query surfaces as an error on the
			// coordinating goroutine instead of crashing the process.
			defer func() {
				if r := recover(); r != nil {
					halt()
					errMu.Lock()
					if poolErr == nil {
						poolErr = newPanicError(r)
					}
					errMu.Unlock()
				}
			}()
			if o.OnWorkerStart != nil {
				defer o.OnWorkerStart()()
			}
			if o.InjectWorkerFault != nil {
				o.InjectWorkerFault(w)
			}
			pl := wrt.pipelineFor(p)
			pl.stop = stop
			pl.emit = emit
			pl.n = 0
			pl.setAgg(agg)
			pl.beginRun()
			rootNext := pl.next[1]
			var sr *stealRun
			if sq != nil {
				sr = newStealRun(pl, stealOp, sq, morsel)
				rootNext = sr.rootNext
			}
			drain := false
			for !stopAll.Load() {
				// Stolen sub-morsels take priority over fresh morsels: they
				// bound the queue's occupancy and finish hub tails sooner.
				if sr != nil {
					if sq.tryPop(pl.b, &sr.snbrs, &sr.seids) {
						if !sr.runStolen() {
							halt()
							break
						}
						// Task boundary: same governance poll as a morsel.
						if pl.govEvery != 0 && !pl.govPoll() {
							halt()
							break
						}
						continue
					}
				}
				if !drain {
					if sr != nil {
						// Root ranges are the only publishers. Entering
						// before drawing from the cursor means a worker that
						// finds the cursor exhausted sees every range still
						// running.
						sq.enter()
					}
					m := int(cursor.Add(1)) - 1
					if m >= numMorsels {
						if sr == nil {
							break
						}
						sq.leave()
						drain = true
						continue
					}
					lo := m * morsel
					hi := lo + morsel
					if hi > size {
						hi = size
					}
					var ok bool
					if pl.tr != nil {
						// The worker loop bypasses step(0) (it drives the root
						// by range), so the traced path measures the root span
						// here: one call per morsel, inclusive deltas.
						sp := &pl.tr.spans[0]
						sp.Calls++
						pl.tr.Morsels++
						icost0, preds0 := wrt.ICost, wrt.PredEvals
						t0 := time.Now()
						ok = root.runRange(wrt, pl.scratch.op(0), pl.b, lo, hi, rootNext)
						sp.Nanos += int64(time.Since(t0))
						sp.ICost += wrt.ICost - icost0
						sp.PredEvals += wrt.PredEvals - preds0
					} else {
						ok = root.runRange(wrt, pl.scratch.op(0), pl.b, lo, hi, rootNext)
					}
					if sr != nil {
						sq.leave()
					}
					if !ok {
						// The pipeline aborted: emit returned false, or a mid-
						// morsel governor poll tripped. Park the whole pool.
						halt()
						break
					}
					// Morsel boundary: publish this worker's counter deltas and
					// poll the governor, bounding cancellation latency by one
					// morsel of work.
					if pl.govEvery != 0 && !pl.govPoll() {
						halt()
						break
					}
					continue
				}
				// Drain phase: the cursor is exhausted but in-flight root
				// ranges may still publish. Once none remain, their pushes
				// are visible (the decrement orders after them), so a final
				// empty pop proves the queue stays empty forever.
				if sq.quiet() {
					if sq.tryPop(pl.b, &sr.snbrs, &sr.seids) {
						if !sr.runStolen() {
							halt()
							break
						}
						if pl.govEvery != 0 && !pl.govPoll() {
							halt()
							break
						}
						continue
					}
					break
				}
				// Block until a publish, the end of the last root range, or a
				// stop. A timed nap would not do: the runtime rounds sleeps
				// under a millisecond up to one, so the query's end would wait
				// for a sleeping drainer.
				sq.wait(&stopAll)
			}
			// Publish any tail counters so the governor's totals reflect the
			// work actually done (partial metrics on aborted executions).
			if pl.govEvery != 0 {
				pl.govFlush()
			}
			counts[w] = pl.n
			aggs[w] = pl.aggRes
			pl.aggOn = false
		}(w)
	}
	wg.Wait()
	var n int64
	for w := range counts {
		n += counts[w]
	}
	var res AggResult
	if agg != nil {
		for w := range aggs {
			res.Merge(aggs[w])
		}
	}
	for w, wrt := range rts {
		rt.ICost += wrt.ICost
		rt.PredEvals += wrt.PredEvals
		if rt.Trace != nil && wrt.Trace != nil {
			rt.Trace.mergeWorker(wrt.Trace, w, counts[w], wrt.ICost, wrt.PredEvals)
		}
	}
	return n, res, true, poolErr
}
