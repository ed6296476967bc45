package aplus

// Query governance: deadlines, cancellation, resource budgets, admission
// control, and panic isolation for the read path. Every governed query
// shares one exec.Governor across its worker pool; workers poll it at every
// morsel boundary and every Governor.CheckEvery sink tuples, so
// cancellation latency is bounded by one morsel of work without adding
// allocations (or more than counter arithmetic) to the steady-state loop.
// A context deadline/cancel is relayed into the governor by a watcher
// goroutine that is only spawned when the context is actually cancelable
// and always reaped before the query returns.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/aplusdb/aplus/internal/exec"
)

// ErrQueryCanceled is reported (wrapped) by a governed query whose context
// was canceled. The query's snapshot is always unpinned and its workers
// fully drained before the error is returned. Match with errors.Is.
var ErrQueryCanceled = errors.New("aplus: query canceled")

// ErrQueryTimeout is reported (wrapped) when a query exceeds its deadline —
// the context's, QueryLimits.MaxDuration, or the database-wide
// OpenOptions.QueryTimeout / DB.QueryTimeout default. Match with errors.Is.
var ErrQueryTimeout = errors.New("aplus: query deadline exceeded")

// ErrBudgetExceeded is reported (wrapped, as a *BudgetError carrying the
// partial metrics) when a query exceeds its i-cost or row budget. Match
// with errors.Is; errors.As against *BudgetError recovers the detail.
var ErrBudgetExceeded = errors.New("aplus: query resource budget exceeded")

// ErrAdmissionRejected is reported (wrapped) when AdmissionPolicy is
// AdmitReject and the query arrives while MaxConcurrentQueries queries are
// already in flight. Match with errors.Is.
var ErrAdmissionRejected = errors.New("aplus: query rejected by admission control")

// ErrQueryPanic is reported (wrapped, as a *QueryPanicError carrying the
// recovered value and stack) when query execution panics inside the
// engine. The panic is confined to the failing query: its workers drain,
// its snapshot is unpinned, and the database remains fully usable. Match
// with errors.Is.
var ErrQueryPanic = errors.New("aplus: query execution panicked")

// QueryLimits are per-query resource budgets; zero fields are unlimited.
type QueryLimits struct {
	// MaxICost bounds the adjacency-list entries the query may read across
	// all of its workers; exceeding it fails the query with a *BudgetError.
	// Enforcement granularity is one governor flush (at most one morsel of
	// work per worker past the budget).
	MaxICost int64
	// MaxRows bounds the matches produced (counted matches for Count,
	// emitted rows for Query), with the same granularity as MaxICost.
	MaxRows int64
	// MaxDuration bounds the query's wall-clock time; exceeding it fails
	// the query with a wrapped ErrQueryTimeout. When zero, the database
	// default (DB.QueryTimeout) applies.
	MaxDuration time.Duration
}

func (l QueryLimits) unlimited() bool { return l == QueryLimits{} }

// AdmissionPolicy says what happens to a query arriving while
// MaxConcurrentQueries queries are already in flight.
type AdmissionPolicy int

const (
	// AdmitQueue (the default) blocks the query until a slot frees or its
	// context is canceled.
	AdmitQueue AdmissionPolicy = iota
	// AdmitReject fails the query fast with a wrapped ErrAdmissionRejected.
	AdmitReject
)

// BudgetError reports which resource budget a query exceeded and the
// profiled metrics it had accumulated by then, so callers can see why.
// errors.Is(err, ErrBudgetExceeded) matches it.
type BudgetError struct {
	// Exceeded is the budget that tripped: "i-cost" or "rows".
	Exceeded string
	// Limits are the budgets the query ran under.
	Limits QueryLimits
	// Partial holds the metrics accumulated up to the abort (the flushed
	// totals of all workers, merged exactly as a successful run would).
	Partial Metrics
	// PartialRows is the number of matches counted/emitted before the abort.
	PartialRows int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	spent, limit := e.Partial.ICost, e.Limits.MaxICost
	if e.Exceeded == "rows" {
		spent, limit = e.PartialRows, e.Limits.MaxRows
	}
	return fmt.Sprintf("%v: %s %d > budget %d", ErrBudgetExceeded, e.Exceeded, spent, limit)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) match.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// QueryPanicError is an engine panic recovered from a query's worker pool
// (or its serial path), carrying the panicking goroutine's stack.
// errors.Is(err, ErrQueryPanic) matches it.
type QueryPanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *QueryPanicError) Error() string {
	return fmt.Sprintf("%v: %v", ErrQueryPanic, e.Value)
}

// Unwrap makes errors.Is(err, ErrQueryPanic) match.
func (e *QueryPanicError) Unwrap() error { return ErrQueryPanic }

// CountCtx is Count with cancellation: the query observes ctx's cancel and
// deadline (plus the database defaults DB.QueryTimeout and DB.Limits) with
// latency bounded by one morsel of work, returning a wrapped
// ErrQueryCanceled/ErrQueryTimeout with the snapshot unpinned and every
// worker drained.
func (db *DB) CountCtx(ctx context.Context, cypher string) (int64, error) {
	n, _, err := db.CountProfiledCtx(ctx, cypher)
	return n, err
}

// CountProfiledCtx is CountProfiled with cancellation (see CountCtx). On a
// budget or deadline abort the returned Metrics hold the partial totals
// accumulated up to the stop.
func (db *DB) CountProfiledCtx(ctx context.Context, cypher string) (int64, Metrics, error) {
	return db.countGoverned(ctx, cypher, db.Limits)
}

// CountProfiledLimited runs a count under explicit per-query limits,
// overriding the database-wide DB.Limits default.
func (db *DB) CountProfiledLimited(ctx context.Context, cypher string, limits QueryLimits) (int64, Metrics, error) {
	return db.countGoverned(ctx, cypher, limits)
}

// QueryCtx is Query with cancellation (see CountCtx): a canceled or
// timed-out query stops emitting within one morsel, drains its workers,
// unpins its snapshot, and returns the wrapped sentinel.
func (db *DB) QueryCtx(ctx context.Context, cypher string, fn func(Row) bool) error {
	return db.queryGoverned(ctx, cypher, db.Limits, fn)
}

// QueryLimited runs a streaming query under explicit per-query limits,
// overriding the database-wide DB.Limits default.
func (db *DB) QueryLimited(ctx context.Context, cypher string, limits QueryLimits, fn func(Row) bool) error {
	return db.queryGoverned(ctx, cypher, limits, fn)
}

// governedRun carries the per-query governance state from admission to
// teardown.
type governedRun struct {
	db      *DB
	gov     *exec.Governor // nil when the query runs ungoverned
	release func()         // admission slot (nil when ungated)
	cancel  context.CancelFunc
	stopW   func() // context-watcher reaper
	start   time.Time

	// Observability context, filled in as the run progresses so finish()
	// can describe the query when it turns out slow (see noteSlowQuery):
	// the query text and plan, the rows/i-cost accumulated, and how the
	// run ended ("" = ok).
	cypher  string
	plan    *exec.Plan
	rows    int64
	icost   int64
	outcome string
}

// beginGoverned admits the query, applies the deadline, and arms the
// governor and its context watcher. On success the caller must defer
// run.finish(). The returned context carries the effective deadline.
func (db *DB) beginGoverned(ctx context.Context, limits QueryLimits) (*governedRun, context.Context, error) {
	if db.closed.Load() {
		return nil, nil, ErrClosed
	}
	// A context that is already dead never admits or pins anything.
	if err := ctx.Err(); err != nil {
		return nil, nil, db.ctxError(ctx)
	}
	arrived := time.Now()
	release, err := db.admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	db.admissionWait.RecordSince(arrived)
	run := &governedRun{db: db, release: release, start: time.Now()}
	db.queriesInFlight.Add(1)
	timeout := limits.MaxDuration
	if timeout <= 0 {
		timeout = db.QueryTimeout
	}
	if timeout > 0 {
		ctx, run.cancel = context.WithTimeout(ctx, timeout)
	}
	if ctx.Done() != nil || !limits.unlimited() {
		run.gov = &exec.Governor{MaxICost: limits.MaxICost, MaxRows: limits.MaxRows}
		// The workers check the deadline themselves: the watcher below may
		// not get a processor until busy workers finish.
		run.gov.Deadline, _ = ctx.Deadline()
		run.stopW = watchContext(ctx, run.gov)
	}
	return run, ctx, nil
}

// finish tears a governed run down: reaps the context watcher, releases the
// deadline timer and the admission slot, maintains the in-flight counter,
// records the query's latency, and captures the slow-query record when the
// run crossed the threshold. It must run on every exit path, including
// panics.
func (run *governedRun) finish() {
	if run.stopW != nil {
		run.stopW()
	}
	if run.cancel != nil {
		run.cancel()
	}
	if run.release != nil {
		run.release()
	}
	run.db.queriesInFlight.Add(-1)
	elapsed := time.Since(run.start)
	run.db.queryLatency.Record(int64(elapsed))
	if t := run.db.SlowQueryThreshold; t > 0 && elapsed >= t {
		run.db.noteSlowQuery(run, elapsed)
	}
}

// watchContext relays ctx's cancellation (and, as a backstop to the
// workers' own checks, its deadline) into the governor from a watcher
// goroutine and returns its reaper. The goroutine exists only while the
// query runs; the reaper must be called (and is idempotent via finish's
// single call site) before the query returns so no goroutine outlives it.
func watchContext(ctx context.Context, gov *exec.Governor) func() {
	if ctx.Done() == nil {
		return nil
	}
	stopped := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				gov.Trip(exec.StopTimeout)
			} else {
				gov.Trip(exec.StopCanceled)
			}
		case <-stopped:
		}
	}()
	return func() { close(stopped) }
}

// admit acquires an admission slot when MaxConcurrentQueries gates the
// database, honoring the queue-or-reject policy. Nested reads issued from
// inside a Query callback bypass the gate: the outer query already holds a
// slot, so blocking here would self-deadlock at MaxConcurrentQueries=1.
func (db *DB) admit(ctx context.Context) (func(), error) {
	max := db.MaxConcurrentQueries
	if max <= 0 {
		return nil, nil
	}
	if db.activeQueries.Load() > 0 {
		if _, ok := db.cbGoroutines.Load(gid()); ok {
			return nil, nil
		}
	}
	gate := db.admissionGate(max)
	select {
	case gate <- struct{}{}:
	default:
		if db.AdmissionPolicy == AdmitReject {
			db.queriesRejected.Add(1)
			return nil, fmt.Errorf("%w (MaxConcurrentQueries=%d)", ErrAdmissionRejected, max)
		}
		select {
		case gate <- struct{}{}:
		case <-ctx.Done():
			return nil, db.ctxError(ctx)
		}
	}
	return func() { <-gate }, nil
}

// admissionGate lazily creates the semaphore channel. Its capacity is fixed
// by the MaxConcurrentQueries value in force at the first gated query;
// change the field only before issuing queries.
func (db *DB) admissionGate(max int) chan struct{} {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.admitCh == nil {
		db.admitCh = make(chan struct{}, max)
	}
	return db.admitCh
}

// ctxError maps a dead context to the matching sentinel and counts it.
func (db *DB) ctxError(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		db.queriesTimedOut.Add(1)
		return fmt.Errorf("%w: %v", ErrQueryTimeout, ctx.Err())
	}
	db.queriesCanceled.Add(1)
	return fmt.Errorf("%w: %v", ErrQueryCanceled, ctx.Err())
}

// govError maps a tripped governor to the public error, counting it and
// attaching the partial metrics where the contract calls for them.
func (db *DB) govError(gov *exec.Governor, limits QueryLimits, m Metrics, rows int64) error {
	switch gov.Reason() {
	case exec.StopTimeout:
		db.queriesTimedOut.Add(1)
		return fmt.Errorf("%w (partial i-cost %d)", ErrQueryTimeout, m.ICost)
	case exec.StopICost:
		return &BudgetError{Exceeded: "i-cost", Limits: limits, Partial: m, PartialRows: rows}
	case exec.StopRows:
		return &BudgetError{Exceeded: "rows", Limits: limits, Partial: m, PartialRows: rows}
	default: // StopCanceled, or a trip with no recorded reason
		db.queriesCanceled.Add(1)
		return fmt.Errorf("%w (partial i-cost %d)", ErrQueryCanceled, m.ICost)
	}
}

// recordPanic converts an exec-layer panic error into the public
// *QueryPanicError and records it in the governance counters.
func (db *DB) recordPanic(err error) error {
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		return err
	}
	db.queriesPanicked.Add(1)
	msg := fmt.Sprintf("%v", pe.Value)
	db.lastQueryPanic.Store(&msg)
	return &QueryPanicError{Value: pe.Value, Stack: pe.Stack}
}

// countGoverned is the governed core of every Count variant.
func (db *DB) countGoverned(ctx context.Context, cypher string, limits QueryLimits) (int64, Metrics, error) {
	run, ctx, err := db.beginGoverned(ctx, limits)
	if err != nil {
		return 0, Metrics{}, err
	}
	defer run.finish()
	run.cypher = cypher
	s, err := db.pin()
	if err != nil {
		return 0, Metrics{}, err
	}
	defer s.Release()
	plan, rt, err := db.planSnap(s, cypher)
	if err != nil {
		return 0, Metrics{}, err
	}
	run.plan = plan
	rt.Gov = run.gov
	opts := db.parallelOptions()
	opts.InjectWorkerFault = db.injectWorkerFault
	n, err := plan.CountParallel(rt, opts)
	run.rows, run.icost = n, rt.ICost
	m := Metrics{ICost: rt.ICost, PredEvals: rt.PredEvals, EstimatedICost: plan.EstimatedICost}
	if err != nil {
		run.outcome = "panic"
		return 0, m, db.recordPanic(err)
	}
	if run.gov != nil && run.gov.Stopped() {
		run.outcome = run.gov.Reason().String()
		return 0, m, db.govError(run.gov, limits, m, n)
	}
	return n, m, nil
}

// queryGoverned is the governed core of every streaming Query variant. A
// panic inside the user callback fn (which may run on a worker goroutine)
// is recovered there, drains the pool, and is re-raised on the calling
// goroutine — preserving ordinary Go panic semantics while guaranteeing the
// snapshot pin and admission slot are released during the unwind.
func (db *DB) queryGoverned(ctx context.Context, cypher string, limits QueryLimits, fn func(Row) bool) error {
	run, ctx, err := db.beginGoverned(ctx, limits)
	if err != nil {
		return err
	}
	defer run.finish()
	run.cypher = cypher
	s, err := db.pin()
	if err != nil {
		return err
	}
	defer s.Release()
	plan, rt, err := db.planSnap(s, cypher)
	if err != nil {
		return err
	}
	run.plan = plan
	db.activeQueries.Add(1)
	defer db.activeQueries.Add(-1)
	// Mark the goroutines that may run fn — this one (serial path and
	// non-partitionable fallback) and every pool worker — so writeGuard can
	// reject writes issued from inside the callback.
	unmark := db.markCallbackGoroutine()
	defer unmark()
	opts := db.parallelOptions()
	opts.OnWorkerStart = db.markCallbackGoroutine
	opts.InjectWorkerFault = db.injectWorkerFault
	rt.Gov = run.gov
	g := s.Graph()
	// Calls to the emit wrapper are serialized by ExecuteParallel, so the
	// callback-panic slot needs no lock.
	var cbPanic any
	cbPanicked := false
	err = plan.ExecuteParallel(rt, opts, func(b *exec.Binding) bool {
		row := Row{g: g, Vertices: make(map[string]VertexID), Edges: make(map[string]EdgeID)}
		for i, name := range plan.VertexNames {
			row.Vertices[name] = b.V[i]
		}
		for i, name := range plan.EdgeNames {
			row.Edges[name] = b.E[i]
		}
		ok, pv, panicked := callRow(fn, row)
		if panicked {
			if !cbPanicked {
				cbPanicked, cbPanic = true, pv
			}
			return false
		}
		run.rows++ // serialized with other emit calls
		return ok
	})
	run.icost = rt.ICost
	if cbPanicked {
		// The pool has drained (ExecuteParallel returned); re-raise the
		// user's panic here so it surfaces on the goroutine that called
		// QueryCtx, with the deferred Release/unmark/finish running during
		// the unwind exactly as for any other panic.
		run.outcome = "callback-panic"
		panic(cbPanic)
	}
	if err != nil {
		run.outcome = "panic"
		return db.recordPanic(err)
	}
	if run.gov != nil && run.gov.Stopped() {
		run.outcome = run.gov.Reason().String()
		m := Metrics{ICost: rt.ICost, PredEvals: rt.PredEvals, EstimatedICost: plan.EstimatedICost}
		return db.govError(run.gov, limits, m, run.gov.RowsSeen())
	}
	return nil
}

// callRow invokes the user callback under a recover, reporting a panic
// instead of letting it unwind a worker goroutine (which would kill the
// process).
func callRow(fn func(Row) bool, r Row) (ok bool, pv any, panicked bool) {
	defer func() {
		if rec := recover(); rec != nil {
			ok, pv, panicked = false, rec, true
		}
	}()
	return fn(r), nil, false
}

// governanceStats fills the governance fields of st.
func (db *DB) governanceStats(st *Stats) {
	st.QueriesInFlight = db.queriesInFlight.Load()
	st.QueriesRejected = db.queriesRejected.Load()
	st.QueriesCanceled = db.queriesCanceled.Load()
	st.QueriesTimedOut = db.queriesTimedOut.Load()
	st.SlowQueries = db.slowQueries.Load()
	st.QueriesPanicked = db.queriesPanicked.Load()
	if p := db.lastQueryPanic.Load(); p != nil {
		st.LastQueryPanic = *p
	}
	st.QueryLatency = db.queryLatency.Snapshot()
	st.AdmissionWait = db.admissionWait.Snapshot()
	st.LastSlowQuery = db.lastSlowQuery.Load()
}
