package exec

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// StopReason says why a Governor stopped a query execution early.
type StopReason int32

const (
	// StopNone: the execution ran (or is running) to completion.
	StopNone StopReason = iota
	// StopCanceled: the caller's context was canceled.
	StopCanceled
	// StopTimeout: the query deadline (context deadline or MaxDuration)
	// expired.
	StopTimeout
	// StopICost: the execution read more adjacency-list entries than its
	// i-cost budget allows.
	StopICost
	// StopRows: the execution produced more matches than its row budget
	// allows.
	StopRows
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopCanceled:
		return "canceled"
	case StopTimeout:
		return "timeout"
	case StopICost:
		return "i-cost budget"
	case StopRows:
		return "row budget"
	}
	return fmt.Sprintf("StopReason(%d)", int32(r))
}

// DefaultCheckEvery is the number of sink tuples a pipeline processes
// between governor polls. The poll itself is a handful of atomic ops, so
// the interval only has to keep the steady-state loop branch-light while
// bounding how far past a trip a hub-dominated tail can run.
const DefaultCheckEvery = 1024

// Governor coordinates cancellation, deadlines, and resource budgets for
// one query execution across all of its workers. A single Governor is
// shared by every worker Runtime of the execution: workers flush their
// locally accumulated i-cost and row counts into it at morsel boundaries
// and every CheckEvery sink tuples, check the budgets, and poll the stop
// flag — so cancellation latency is bounded by one morsel (plus CheckEvery
// tuples of a hub-dominated tail) and the steady-state loop stays
// allocation-free.
//
// The zero value of every field is "no limit"; a nil *Governor disables
// governance entirely (the default for direct exec callers).
type Governor struct {
	// MaxICost bounds the total adjacency-list entries the execution may
	// read across all workers (0 = unlimited). Enforcement granularity is
	// one flush interval, so a query may overshoot by up to one morsel's
	// work per worker before stopping.
	MaxICost int64
	// MaxRows bounds the total matches produced (counted matches for Count,
	// emitted rows for Execute; 0 = unlimited).
	MaxRows int64
	// CheckEvery overrides the number of sink tuples between governor polls
	// (0 = DefaultCheckEvery).
	CheckEvery int
	// Deadline, when non-zero, stops the execution with StopTimeout once it
	// passes. Workers read the clock at every poll, so the deadline holds
	// even when no other goroutine can get a processor to trip it.
	Deadline time.Time

	stop   atomic.Bool
	reason atomic.Int32
	icost  atomic.Int64
	rows   atomic.Int64
}

func (g *Governor) checkEvery() int {
	if g.CheckEvery <= 0 {
		return DefaultCheckEvery
	}
	return g.CheckEvery
}

// Trip requests that the execution stop with the given reason. The first
// trip wins; later ones keep the original reason. Safe from any goroutine
// (deadline watchers, admission controllers, the workers themselves).
func (g *Governor) Trip(r StopReason) {
	g.reason.CompareAndSwap(int32(StopNone), int32(r))
	g.stop.Store(true)
}

// Stopped reports whether the execution was (or is being) stopped early.
func (g *Governor) Stopped() bool { return g.stop.Load() }

// Reason returns why the execution stopped (StopNone when it was never
// tripped).
func (g *Governor) Reason() StopReason { return StopReason(g.reason.Load()) }

// ICostSeen returns the total i-cost flushed into the governor so far.
// After the pool drains it equals the execution's (possibly partial)
// i-cost; mid-flight it trails the true total by at most one flush
// interval per worker.
func (g *Governor) ICostSeen() int64 { return g.icost.Load() }

// RowsSeen returns the total produced rows flushed into the governor so
// far, with the same staleness bound as ICostSeen.
func (g *Governor) RowsSeen() int64 { return g.rows.Load() }

// addICost publishes a worker's i-cost delta and enforces MaxICost.
func (g *Governor) addICost(delta int64) {
	if t := g.icost.Add(delta); g.MaxICost > 0 && t > g.MaxICost {
		g.Trip(StopICost)
	}
}

// addRows publishes a worker's produced-row delta and enforces MaxRows.
func (g *Governor) addRows(delta int64) {
	if t := g.rows.Add(delta); g.MaxRows > 0 && t > g.MaxRows {
		g.Trip(StopRows)
	}
}

// checkDeadline trips StopTimeout once the deadline has passed.
func (g *Governor) checkDeadline() {
	if !g.Deadline.IsZero() && time.Now().After(g.Deadline) {
		g.Trip(StopTimeout)
	}
}

// PanicError is a panic recovered from a worker goroutine (or the serial
// execution path), converted to an error so a poisoned query surfaces as a
// failed call instead of a crashed process. Value is the recovered panic
// value and Stack the panicking goroutine's stack at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: query execution panicked: %v", e.Value)
}

// newPanicError captures the recovered value r and the current goroutine's
// stack. It must be called from inside the recovering deferred function.
func newPanicError(r any) *PanicError {
	return &PanicError{Value: r, Stack: debug.Stack()}
}
