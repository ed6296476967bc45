package exec

// Factorized aggregate evaluation: COUNT pushdown generalized to SUM, MIN,
// and MAX over integer vertex properties. The counting sink's fold boundary
// already proves that a trailing suffix of pure EXTENDs contributes only a
// product of list lengths; for aggregates the same boundary contributes the
// aggregated value times the match multiplicity. Aggregates are int64-only:
// integer addition, min, and max are associative and commutative, so any
// partitioning of the work (morsels, stolen sub-morsels, folded vs
// enumerated suffixes) yields bit-identical results — the same merge proof
// as the metric counters.

import (
	"time"

	"github.com/aplusdb/aplus/internal/storage"
)

// AggKind selects the aggregate function.
type AggKind uint8

const (
	// AggCount counts matches (COUNT(*)); Slot and Prop are ignored.
	AggCount AggKind = iota
	// AggSum sums an integer vertex property over all matches.
	AggSum
	// AggMin takes the minimum of an integer vertex property over matches.
	AggMin
	// AggMax takes the maximum of an integer vertex property over matches.
	AggMax
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "agg?"
}

// AggSpec names what to aggregate: the function, the vertex binding slot of
// the aggregated variable, and the property read from each matched vertex.
// Matches where the property is missing or non-integer are NULLs: they count
// toward Rows but contribute nothing to Sum/Min/Max/NonNull.
type AggSpec struct {
	Kind AggKind
	Slot int
	Prop string
}

// AggResult is an exactly mergeable aggregate accumulator. Min and Max are
// only meaningful when NonNull > 0.
type AggResult struct {
	// Rows is the number of matches (folded arithmetic included).
	Rows int64
	// Sum accumulates the property over non-null matches (AggSum).
	Sum int64
	// Min and Max are the property extrema over non-null matches.
	Min int64
	Max int64
	// NonNull is the number of matches with an integer property value.
	NonNull int64
}

// Merge folds another partition's result in. int64 sums and extrema are
// associative and commutative (sums even under wraparound), so merging
// per-worker or per-sub-morsel partials in any order yields the
// same result as a serial run.
func (r *AggResult) Merge(o AggResult) {
	r.Rows += o.Rows
	r.Sum += o.Sum
	if o.NonNull > 0 {
		if r.NonNull == 0 || o.Min < r.Min {
			r.Min = o.Min
		}
		if r.NonNull == 0 || o.Max > r.Max {
			r.Max = o.Max
		}
	}
	r.NonNull += o.NonNull
}

// observe accumulates one property value occurring in mult matches.
func (r *AggResult) observe(v int64, mult int64) {
	if mult <= 0 {
		return
	}
	if r.NonNull == 0 || v < r.Min {
		r.Min = v
	}
	if r.NonNull == 0 || v > r.Max {
		r.Max = v
	}
	r.Sum += v * mult
	r.NonNull += mult
}

// setAgg arms (or disarms, spec == nil) the pipeline's aggregate sink for
// one run. pl.stop must already hold the sink boundary: the aggregated
// slot's position relative to it decides between reading the bound value
// (once per boundary tuple, times the fold multiplicity) and scanning the
// folded list that binds it.
func (pl *pipeline) setAgg(spec *AggSpec) {
	if spec == nil {
		pl.aggOn = false
		return
	}
	pl.aggOn = true
	pl.agg = *spec
	pl.aggRes = AggResult{}
	pl.aggSlotOp = -1
	// Bind the aggregated column once per run. Prop names a column, not a
	// pseudo-property, and only int columns hold non-NULL aggregate values.
	pl.aggCol = nil
	if col, ok := pl.rt.G.VertexColumn(spec.Prop); ok && col.Kind == storage.KindInt {
		pl.aggCol = col
	}
	if spec.Kind != AggCount {
		for j := pl.stop; j < len(pl.plan.Ops); j++ {
			if o, ok := pl.plan.Ops[j].(*ExtendIntersectOp); ok && o.TargetSlot == spec.Slot {
				pl.aggSlotOp = j
			}
		}
	}
}

// aggFold is the aggregate counterpart of foldedCount: it charges the exact
// i-cost enumeration would have (the arithmetic is foldedCount's, term for
// term) and accumulates the aggregate into pl.aggRes. When the aggregated
// slot is bound by a folded operator, that list is fetched and scanned —
// its per-entry values each occur in total/len(list) matches; when it is
// bound before the boundary, the single bound value occurs in every match
// of the fold product. Returns the number of matches folded.
func (pl *pipeline) aggFold() int64 {
	rt, b, p := pl.rt, pl.b, pl.plan
	total := int64(1)
	var nJ, cntJ, sumJ, minJ, maxJ int64
	for j := pl.stop; j < len(p.Ops); j++ {
		o := p.Ops[j].(*ExtendIntersectOp)
		if j == pl.aggSlotOp {
			n := pl.aggScanList(o, j, &cntJ, &sumJ, &minJ, &maxJ)
			rt.ICost += n * (total - 1)
			nJ = n
			total *= n
		} else {
			n := int64(o.Lists[0].FetchLen(rt, pl.scratch.op(j), b))
			rt.ICost += n * (total - 1)
			total *= n
		}
		if total == 0 {
			return 0 // enumeration never reaches the later lists
		}
	}
	pl.aggAccumulate(total, nJ, cntJ, sumJ, minJ, maxJ)
	return total
}

// aggFoldTraced is aggFold with per-operator span attribution, mirroring
// foldedCountTraced: identical arithmetic, with each folded operator's
// fetch, i-cost share, and produced tuples landing in its own span.
func (pl *pipeline) aggFoldTraced() int64 {
	rt, b, p, tr := pl.rt, pl.b, pl.plan, pl.tr
	total := int64(1)
	var nJ, cntJ, sumJ, minJ, maxJ int64
	for j := pl.stop; j < len(p.Ops); j++ {
		o := p.Ops[j].(*ExtendIntersectOp)
		sp := &tr.spans[j]
		sp.Calls++
		icost0, preds0 := rt.ICost, rt.PredEvals
		t0 := time.Now()
		var n int64
		if j == pl.aggSlotOp {
			n = pl.aggScanList(o, j, &cntJ, &sumJ, &minJ, &maxJ)
			nJ = n
		} else {
			n = int64(o.Lists[0].FetchLen(rt, pl.scratch.op(j), b))
		}
		rt.ICost += n * (total - 1)
		sp.Nanos += int64(time.Since(t0))
		sp.ICost += rt.ICost - icost0
		sp.PredEvals += rt.PredEvals - preds0
		total *= n
		sp.Rows += total
		if total == 0 {
			return 0
		}
	}
	pl.aggAccumulate(total, nJ, cntJ, sumJ, minJ, maxJ)
	return total
}

// aggScanList fetches and decodes folded operator j's list (charging its
// length, exactly like FetchLen) and accumulates the aggregated property's
// stats over its entries. Returns the list length.
func (pl *pipeline) aggScanList(o *ExtendIntersectOp, j int, cntJ, sumJ, minJ, maxJ *int64) int64 {
	rt, b := pl.rt, pl.b
	r := &o.Lists[0]
	sc := pl.scratch.op(j)
	sc.ensureLists(1)
	sc.decode(0, r.fetchWith(rt, sc, 0, b, r.Codes))
	f := sc.lists[0]
	*cntJ, *sumJ, *minJ, *maxJ = 0, 0, 0, 0
	for _, nbr := range f.nbrs {
		v, ok := pl.aggInt(storage.VertexID(nbr))
		if !ok {
			continue
		}
		if *cntJ == 0 || v < *minJ {
			*minJ = v
		}
		if *cntJ == 0 || v > *maxJ {
			*maxJ = v
		}
		*sumJ += v
		*cntJ++
	}
	return int64(len(f.nbrs))
}

// aggInt reads the aggregated property of vertex v; ok is false for NULL.
func (pl *pipeline) aggInt(v storage.VertexID) (int64, bool) {
	if pl.aggCol == nil {
		return 0, false
	}
	return pl.aggCol.IntAt(int(v))
}

// aggAccumulate folds one boundary tuple's contribution into pl.aggRes.
// total is the tuple's match multiplicity (> 0); when the aggregated slot
// was bound by folded operator j, nJ/cntJ/sumJ/minJ/maxJ carry that list's
// scan stats and each entry occurs in total/nJ matches.
func (pl *pipeline) aggAccumulate(total, nJ, cntJ, sumJ, minJ, maxJ int64) {
	res := &pl.aggRes
	res.Rows += total
	if pl.agg.Kind == AggCount {
		return
	}
	if pl.aggSlotOp >= 0 {
		if cntJ == 0 {
			return
		}
		tOther := total / nJ
		if res.NonNull == 0 || minJ < res.Min {
			res.Min = minJ
		}
		if res.NonNull == 0 || maxJ > res.Max {
			res.Max = maxJ
		}
		res.Sum += sumJ * tOther
		res.NonNull += cntJ * tOther
		return
	}
	v, ok := pl.aggInt(pl.b.V[pl.agg.Slot])
	if !ok {
		return
	}
	res.observe(v, total)
}

// Aggregate executes the plan and returns the aggregate over all matches,
// folding the trailing pure-EXTEND suffix exactly like Count: the match
// count (AggResult.Rows) and the accumulated i-cost are bit-identical to
// full enumeration.
func (p *Plan) Aggregate(rt *Runtime, spec AggSpec) AggResult {
	return p.aggregateRun(rt, spec, p.countFoldStart())
}

func (p *Plan) aggregateRun(rt *Runtime, spec AggSpec, stop int) AggResult {
	pl := rt.pipelineFor(p)
	pl.stop = stop
	pl.emit = nil
	pl.n = 0
	pl.setAgg(&spec)
	pl.beginRun()
	pl.step(0)
	if pl.govEvery != 0 {
		pl.govFlush()
	}
	pl.aggOn = false
	return pl.aggRes
}

// AggregateParallel executes the aggregate with the morsel-driven worker
// pool (work stealing included) and merges the per-worker partials exactly.
// Panic conversion, governance polling, and the serial fallback behave as
// in CountParallel.
func (p *Plan) AggregateParallel(rt *Runtime, o ParallelOptions, spec AggSpec) (AggResult, error) {
	return p.aggregateParallelStop(rt, o, spec, p.countFoldStart())
}

// aggregateParallelStop is AggregateParallel with an explicit sink boundary
// so parity tests can force full enumeration (stop == len(Ops)).
func (p *Plan) aggregateParallelStop(rt *Runtime, o ParallelOptions, spec AggSpec, stop int) (AggResult, error) {
	workers := o.workers()
	if workers > 1 {
		_, res, ran, err := p.runMorsels(rt, o, workers, true, stop, &spec, nil)
		if ran {
			return res, err
		}
	}
	return p.aggregateSerial(rt, o, spec, stop)
}

// aggregateSerial is the single-threaded aggregate path with the same
// panic-to-error contract as the worker pool.
func (p *Plan) aggregateSerial(rt *Runtime, o ParallelOptions, spec AggSpec, stop int) (res AggResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = newPanicError(r)
		}
	}()
	if o.InjectWorkerFault != nil {
		o.InjectWorkerFault(0)
	}
	return p.aggregateRun(rt, spec, stop), nil
}
