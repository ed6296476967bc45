package exec

import (
	"fmt"
	"strings"
	"time"

	"github.com/aplusdb/aplus/internal/storage"
)

// Plan is a linear pipeline of physical operators producing complete
// matches of a query graph.
type Plan struct {
	Ops []Op
	// NumV and NumE size the binding.
	NumV, NumE int
	// VertexNames and EdgeNames map binding slots back to query variables
	// (for explanations and result rendering).
	VertexNames []string
	EdgeNames   []string
	// EstimatedICost is the optimizer's cost estimate for the plan.
	EstimatedICost float64
}

// pipeline is a plan compiled against one Runtime: the reusable binding,
// the operator scratch arena, and a closure chain built once so that the
// per-tuple path performs no allocations. Building it also binds the plan's
// terms, segments and sort keys against the Runtime's graph (Op.bind), the
// one place a query resolves property names: the Plan itself keeps names
// only, because a cached plan serves every snapshot of its store. A Runtime
// caches the pipeline of the last plan it executed, so repeated
// Count/Execute calls on a warm Runtime are allocation-free.
type pipeline struct {
	plan *Plan
	rt   *Runtime
	b    *Binding
	// scratch is this pipeline's arena of per-operator buffers. It lives on
	// the pipeline rather than the Runtime because a Runtime may cache
	// pipelines for several plans with different operator counts; buffers
	// are only ever reused by re-executions of the same plan.
	scratch Scratch
	// next[i] runs operators i.. and then the sink; next[i] is passed as
	// the continuation of operator i-1.
	next []func() bool
	// stop is the operator index where the sink takes over: len(Ops) for
	// full enumeration, the fold boundary for pushed-down counting.
	stop int
	// emit is the enumeration sink; nil selects the counting sink.
	emit func(*Binding) bool
	n    int64

	// Aggregate sink state (see agg.go): aggOn selects the aggregate fold
	// over the plain counting fold, agg is the armed spec, aggCol its int
	// column bound against the Runtime's graph (nil when every value is
	// NULL), aggSlotOp the folded operator binding the aggregated slot (-1
	// when it is bound before the boundary), and aggRes the run's
	// accumulator.
	aggOn     bool
	agg       AggSpec
	aggCol    *storage.Column
	aggSlotOp int
	aggRes    AggResult

	// Governance state (all zero when rt.Gov is nil): govEvery is the
	// flush interval in sink tuples, govTuples counts tuples since the last
	// flush, govRows the rows produced since, and govICostBase the rt.ICost
	// watermark already published to the governor.
	govEvery     int
	govTuples    int
	govRows      int64
	govICostBase int64

	// tr mirrors rt.Trace for the duration of one run (nil = disarmed).
	// It is re-latched by beginRun so a cached pipeline never keeps tracing
	// an execution that no longer asks for it.
	tr *Trace
}

// beginRun re-arms the pipeline's governance state for one execution. It
// must run after pipelineFor and before step(0): the cached pipeline may
// have been built for an earlier execution with a different (or no)
// governor, and the i-cost watermark must start at the Runtime's current
// accumulator value.
func (pl *pipeline) beginRun() {
	pl.tr = pl.rt.Trace
	if pl.tr != nil {
		pl.tr.arm(len(pl.plan.Ops), pl.stop)
	}
	g := pl.rt.Gov
	if g == nil {
		pl.govEvery = 0
		return
	}
	pl.govEvery = g.checkEvery()
	pl.govTuples = 0
	pl.govRows = 0
	pl.govICostBase = pl.rt.ICost
}

// govFlush publishes the pipeline's locally accumulated i-cost and row
// counters to the governor, enforces the budgets, and reports whether the
// execution may continue. It performs no allocations.
func (pl *pipeline) govFlush() bool {
	g := pl.rt.Gov
	pl.govTuples = 0
	if ic := pl.rt.ICost - pl.govICostBase; ic != 0 {
		pl.govICostBase = pl.rt.ICost
		g.addICost(ic)
	}
	if pl.govRows != 0 {
		g.addRows(pl.govRows)
		pl.govRows = 0
	}
	return !g.stop.Load()
}

// maxCachedPipelines bounds the per-Runtime pipeline cache. The working
// set is expected to be tiny (a Runtime usually serves one or a handful of
// cached plans); on overflow the whole map is dropped rather than tracking
// recency — rebuilding a pipeline is cheap next to compiling its plan.
const maxCachedPipelines = 64

// pipelineFor returns the Runtime's cached pipeline for p, building it on
// first use. The most recent plan hits a single pointer compare; older
// plans hit the per-plan map, so alternating query texts stay warm too.
func (rt *Runtime) pipelineFor(p *Plan) *pipeline {
	if rt.pipe != nil && rt.pipe.plan == p {
		return rt.pipe
	}
	if pl, ok := rt.pipes[p]; ok {
		rt.pipe = pl
		return pl
	}
	pl := &pipeline{plan: p, rt: rt, b: NewBinding(p.NumV, p.NumE)}
	pl.scratch.reset(len(p.Ops))
	for i, op := range p.Ops {
		op.bind(rt.G, pl.scratch.op(i))
	}
	pl.next = make([]func() bool, len(p.Ops)+1)
	for i := 1; i <= len(p.Ops); i++ {
		i := i
		pl.next[i] = func() bool { return pl.step(i) }
	}
	if rt.pipes == nil {
		rt.pipes = make(map[*Plan]*pipeline, 4)
	} else if len(rt.pipes) >= maxCachedPipelines {
		clear(rt.pipes)
	}
	rt.pipes[p] = pl
	rt.pipe = pl
	return pl
}

// step runs operators i.. of the pipeline, or the sink once i reaches the
// stop boundary. With tracing disarmed (the steady state) the only added
// cost is the nil test; the traced twin carries all measurement overhead.
func (pl *pipeline) step(i int) bool {
	if pl.tr != nil {
		return pl.stepTraced(i)
	}
	if i >= pl.stop {
		return pl.sink()
	}
	return pl.plan.Ops[i].run(pl.rt, pl.scratch.op(i), pl.b, pl.next[i+1])
}

// stepTraced is step with span recording: it accumulates the operator's
// invocation count and its inclusive wall-time/i-cost/predicate deltas
// (operators run their continuation in-line, so a span covers the whole
// downstream chain; Trace.Report telescopes the exclusive figures back
// out). The sink's span is the final slot.
func (pl *pipeline) stepTraced(i int) bool {
	idx := i
	if i >= pl.stop {
		idx = len(pl.plan.Ops)
	}
	sp := &pl.tr.spans[idx]
	sp.Calls++
	icost0, preds0 := pl.rt.ICost, pl.rt.PredEvals
	t0 := time.Now()
	var ok bool
	if i >= pl.stop {
		ok = pl.sinkTraced()
	} else {
		ok = pl.plan.Ops[i].run(pl.rt, pl.scratch.op(i), pl.b, pl.next[i+1])
	}
	sp.Nanos += int64(time.Since(t0))
	sp.ICost += pl.rt.ICost - icost0
	sp.PredEvals += pl.rt.PredEvals - preds0
	return ok
}

// sink consumes one boundary tuple: enumeration hands it to emit, counting
// folds the remaining pure-EXTEND suffix (possibly empty) into a product.
// With a governor attached it also ticks the cancel/budget check every
// govEvery tuples, so even a single hub-dominated morsel observes a trip
// within a bounded number of produced rows.
func (pl *pipeline) sink() bool {
	var rows int64
	if pl.emit != nil {
		if !pl.emit(pl.b) {
			return false
		}
		rows = 1
	} else if pl.aggOn {
		rows = pl.aggFold()
		pl.n += rows
	} else {
		rows = pl.plan.foldedCount(pl.rt, &pl.scratch, pl.b, pl.stop)
		pl.n += rows
	}
	if pl.govEvery == 0 {
		return true
	}
	pl.govRows += rows
	pl.govTuples++
	if pl.govTuples < pl.govEvery {
		return true
	}
	return pl.govFlush()
}

// sinkTraced is sink with span recording: the caller (stepTraced) measures
// the sink's inclusive figures; this twin additionally records produced
// rows into the sink span and routes the counting fold through its traced
// variant so each folded operator gets its own attribution.
func (pl *pipeline) sinkTraced() bool {
	var rows int64
	if pl.emit != nil {
		if !pl.emit(pl.b) {
			return false
		}
		rows = 1
	} else if pl.aggOn {
		rows = pl.aggFoldTraced()
		pl.n += rows
	} else {
		rows = pl.plan.foldedCountTraced(pl.rt, &pl.scratch, pl.b, pl.stop, pl.tr)
		pl.n += rows
	}
	pl.tr.spans[len(pl.plan.Ops)].Rows += rows
	if pl.govEvery == 0 {
		return true
	}
	pl.govRows += rows
	pl.govTuples++
	if pl.govTuples < pl.govEvery {
		return true
	}
	return pl.govFlush()
}

// Execute streams complete matches into emit; returning false from emit
// stops execution early. The binding passed to emit is reused — copy it if
// retaining. A Runtime must not execute two plans concurrently; the
// morsel-parallel path gives each worker its own Runtime.
func (p *Plan) Execute(rt *Runtime, emit func(*Binding) bool) {
	pl := rt.pipelineFor(p)
	pl.stop = len(p.Ops)
	pl.emit = emit
	pl.aggOn = false
	pl.beginRun()
	pl.step(0)
	if pl.govEvery != 0 {
		pl.govFlush()
	}
	pl.emit = nil
}

// Count executes the plan and returns the number of matches. When the plan
// ends in pure unfiltered EXTENDs over slots bound earlier, counting folds
// the product of adjacency-list lengths at that boundary instead of
// enumerating bindings (count pushdown): the count and the accumulated
// i-cost are bit-identical to enumeration, with orders of magnitude fewer
// operator invocations on star/fan-out queries.
func (p *Plan) Count(rt *Runtime) int64 {
	pl := rt.pipelineFor(p)
	pl.stop = p.countFoldStart()
	pl.emit = nil
	pl.aggOn = false
	pl.n = 0
	pl.beginRun()
	pl.step(0)
	if pl.govEvery != 0 {
		pl.govFlush()
	}
	return pl.n
}

// countFoldStart returns the start of the longest plan suffix consisting
// solely of pure unfiltered EXTENDs (one list, no sorted segment) whose
// owner slots are all bound before the suffix, so no suffix operator
// consumes another's output. Counting folds that suffix into a product of
// list lengths. len(p.Ops) means no folding applies; the suffix never
// includes operator 0 (the root scan is partitioned, not folded).
func (p *Plan) countFoldStart() int {
	start := len(p.Ops)
	for start > 1 {
		op, ok := p.Ops[start-1].(*ExtendIntersectOp)
		if !ok || len(op.Lists) != 1 || op.Lists[0].Seg != nil {
			break
		}
		// Nothing already in the suffix may read a slot this op binds.
		dep := false
		for _, later := range p.Ops[start:] {
			r := &later.(*ExtendIntersectOp).Lists[0]
			if r.Kind == ListEP {
				if r.OwnerEdgeSlot == op.Lists[0].EdgeSlot {
					dep = true
					break
				}
			} else if r.OwnerVertexSlot == op.TargetSlot {
				dep = true
				break
			}
		}
		if dep {
			break
		}
		start--
	}
	return start
}

// foldedCount returns the number of matches the plan suffix [start:) would
// enumerate from the boundary binding b, as the product of its adjacency-
// list lengths, charging exactly the i-cost enumeration would have charged:
// enumeration fetches suffix list i once per tuple produced by lists 0..i-1.
func (p *Plan) foldedCount(rt *Runtime, s *Scratch, b *Binding, start int) int64 {
	total := int64(1)
	for j := start; j < len(p.Ops); j++ {
		o := p.Ops[j].(*ExtendIntersectOp)
		// charges this list's (delta-spliced) length once
		n := int64(o.Lists[0].FetchLen(rt, s.op(j), b))
		rt.ICost += n * (total - 1) // the remaining fetches enumeration does
		total *= n
		if total == 0 {
			return 0 // enumeration never reaches the later lists
		}
	}
	return total
}

// foldedCountTraced is foldedCount with per-operator span attribution: the
// arithmetic charges are identical (so traced counts and i-cost stay
// bit-identical to the untraced fold), but each folded operator's fetch,
// i-cost share, and produced-tuple count land in its own span. These spans
// are recorded exclusively — Trace.Report subtracts them from the sink.
func (p *Plan) foldedCountTraced(rt *Runtime, s *Scratch, b *Binding, start int, tr *Trace) int64 {
	total := int64(1)
	for j := start; j < len(p.Ops); j++ {
		o := p.Ops[j].(*ExtendIntersectOp)
		sp := &tr.spans[j]
		sp.Calls++
		icost0, preds0 := rt.ICost, rt.PredEvals
		t0 := time.Now()
		n := int64(o.Lists[0].FetchLen(rt, s.op(j), b))
		rt.ICost += n * (total - 1) // the remaining fetches enumeration does
		sp.Nanos += int64(time.Since(t0))
		sp.ICost += rt.ICost - icost0
		sp.PredEvals += rt.PredEvals - preds0
		total *= n
		sp.Rows += total
		if total == 0 {
			return 0 // enumeration never reaches the later lists
		}
	}
	return total
}

// OpNames returns each operator's rendered description in pipeline order
// (the per-line bodies of Explain), for trace rendering.
func (p *Plan) OpNames() []string {
	names := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		names[i] = op.explain()
	}
	return names
}

// Explain renders the pipeline, one operator per line.
func (p *Plan) Explain() string {
	var b strings.Builder
	for i, op := range p.Ops {
		fmt.Fprintf(&b, "%2d. %s\n", i+1, op.explain())
	}
	return b.String()
}
