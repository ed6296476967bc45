// Package exec implements the query processor of the system: push-based
// physical operators over A+ indexes. The operator set mirrors
// GraphflowDB's as described in Section IV-A of the paper: SCAN,
// EXTEND/INTERSECT (E/I, the WCOJ operator performing z-way intersections
// of neighbour-ID-sorted lists), MULTI-EXTEND (intersections of lists
// sorted on other properties, extending to one or more query vertices), and
// FILTER.
package exec

import (
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/storage"
)

// Binding is a partial match: assignments of data vertices/edges to query
// vertex/edge slots.
type Binding struct {
	V []storage.VertexID
	E []storage.EdgeID
}

// NewBinding allocates a binding for the given slot counts.
func NewBinding(numV, numE int) *Binding {
	return &Binding{V: make([]storage.VertexID, numV), E: make([]storage.EdgeID, numE)}
}

// Runtime carries the execution context and accumulates the i-cost metric
// (total adjacency-list entries accessed), which is both the optimizer's
// cost model and a useful observable in tests.
type Runtime struct {
	Store *index.Store
	G     *storage.Graph

	// Delta is the pinned snapshot's overlay of unmerged writes (nil when
	// the snapshot is clean): primary list fetches splice its per-owner
	// insert runs and delete records into the flat-slice decode, and scans
	// skip its pending deletes. G is then the snapshot's graph, which may
	// contain vertices/edges the frozen Store has not indexed yet.
	Delta *index.Delta

	// ICost counts adjacency entries read from lists.
	ICost int64
	// PredEvals counts per-entry predicate evaluations (the quantity that
	// secondary indexes with matching sort orders reduce; Section V-C1).
	PredEvals int64

	// Gov, when set, governs this execution: the pipeline flushes locally
	// accumulated i-cost/row counters into it and polls its stop flag every
	// Governor.CheckEvery sink tuples and at every morsel boundary. The
	// morsel-parallel path shares the root Runtime's Governor with every
	// worker Runtime it spawns. nil disables governance (no per-tuple
	// overhead beyond one nil check per sink call).
	Gov *Governor

	// Trace, when set, records a span per plan operator for the next
	// execution (EXPLAIN ANALYZE). Like Gov it is an opt-in governor-style
	// hook: nil (the default) disables tracing at the cost of one pointer
	// test per pipeline step and adds no allocations. The morsel-parallel
	// path gives every worker Runtime its own Trace and merges them into
	// this one after the barrier, exactly like ICost/PredEvals — traced
	// metric sums are bit-identical to an untraced run at any worker count.
	Trace *Trace

	// pipe caches the compiled pipeline (binding + scratch arena + closure
	// chain) of the last plan this Runtime executed, and pipes holds one
	// pipeline per plan seen, so warm re-executions are allocation-free
	// even when distinct plans alternate (the serving layer's plan cache
	// replays a small working set of compiled plans against long-lived
	// runtimes). A Runtime serves one plan execution at a time — the
	// morsel-parallel path gives each worker its own Runtime.
	pipe  *pipeline
	pipes map[*Plan]*pipeline
}

// NewRuntime builds a runtime over a store.
func NewRuntime(s *index.Store) *Runtime {
	return &Runtime{Store: s, G: s.Graph()}
}

// NewRuntimeOver builds a runtime reading through a pinned snapshot: the
// frozen base store s, the snapshot's graph g (a superset of the store's
// build graph), and the delta overlay d (an empty or nil delta disables
// splicing entirely).
func NewRuntimeOver(s *index.Store, g *storage.Graph, d *index.Delta) *Runtime {
	if d.Empty() {
		d = nil
	}
	return &Runtime{Store: s, G: g, Delta: d}
}
