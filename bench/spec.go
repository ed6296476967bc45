package main

// The benchmark's vocabulary: every workload and metric name it prints.
// BENCHMARK.json (written by -aa) and the README glossary follow this table.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"served-point", "sub-ms ID-anchored reads through a real aplusd: wire, dispatch, shard fan-out, governance and plan-cache hits do the work, exec almost none"},
	{"embedded-join", "one in-process DB tuned as the paper tunes it runs 2-50 ms SQ/MR/MF joins: scan/EXTEND/intersect and CSR decode do the work, the wire none"},
	{"durable-singletons", "2 writers commit one edge at a time to an fsync-on WAL: stage/publish, WAL append, fsync, folds and checkpoints do the work, reads none"},
	{"mixed-views", "view-backed reads while a paced writer commits: every commit hides secondary views until the next fold, so the write path is judged from the read side"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string
	Exact  bool // repeats bit-for-bit for a given seed; printed as a count
}

// endToEnd are the metrics a user of the system sees, identical on every
// workload and measured with tracing off.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", false},        // correct operations completed per second of measured window (closed loop; median of ten equal-count blocks)
	{"p50_ms", "ms", "lower", false},             // median caller-observed latency of one operation
	{"setup_s", "s", "lower", false},             // load the graph through the workload's own write path + index DDL + Flush + first request; median of three set-ups; excludes the generator and warm-up
	{"index_bytes_per_edge", "B", "lower", true}, // (PrimaryLevelBytes + PrimaryIDListBytes + SecondaryIndexBytes) / NumEdges from Stats() after set-up
}

// perLayer are the traced run's numbers, measured from outside by timing
// calls into each layer's exported entry points. A layer a workload does
// not cross reads 0 there.
var perLayer = []metricDef{
	{"served.self_us", "us", "lower", false},            // proto+server+shard+loopback: client.Count round trip minus DB.CountCtx on an identical embedded DB
	{"proto.codec_us", "us", "lower", false},            // marshal+unmarshal of one count request and response (internal/proto structs)
	{"aplus.govern_us", "us", "lower", false},           // admission, deadline watcher, plan-cache lookup, error map: DB.CountCtx minus the pin and exec rungs
	{"query.parse_us", "us", "lower", false},            // query.Parse per request text (paid only on a plan-cache miss)
	{"opt.plan_us", "us", "lower", false},               // opt.Optimize per request text (paid only on a plan-cache miss)
	{"plancache.hit_ratio", "ratio", "higher", true},    // plan-cache hits / lookups over the traced window, from Stats()
	{"snap.pin_ns", "ns", "lower", false},               // snap.Manager Acquire+Release
	{"exec.run_us", "us", "lower", false},               // plan.CountParallel wall time over a pinned snapshot, per operation
	{"exec.icost", "count", "lower", true},              // adjacency entries read per operation (Runtime.ICost)
	{"exec.icost_per_result", "ratio", "lower", true},   // exec.icost / matches
	{"exec.ns_per_icost", "ns", "lower", false},         // exec.run_us / exec.icost
	{"index.bytes.primary_levels", "B", "lower", true},  // Stats().PrimaryLevelBytes after set-up
	{"index.bytes.primary_ids", "B", "lower", true},     // Stats().PrimaryIDListBytes after set-up
	{"index.bytes.secondary", "B", "lower", true},       // Stats().SecondaryIndexBytes after set-up
	{"snap.commit_us", "us", "lower", false},            // singleton commit through an in-memory snap.Manager (no WAL) on an equal-sized graph
	{"wal.append_us", "us", "lower", false},             // DB.AddEdge with fsync off minus snap.commit_us: WAL encode+append
	{"wal.sync_wait_us", "us", "lower", false},          // DB.AddEdge with fsync on minus fsync off: fsync plus waiting behind the group leader
	{"wal.fsync_us", "us", "lower", false},              // mean WAL fsync over the traced window, from Stats().WALFsync
	{"wal.group_size", "count", "higher", false},        // GroupedWrites / GroupCommits over the traced window
	{"wal.bytes_per_op", "B", "lower", false},           // WAL bytes appended per acknowledged op (sampled Stats().WALBytes growth)
	{"wal.checkpoint_bytes", "B", "lower", false},       // checkpoint bytes written during the traced window
	{"snap.fold_ms", "ms", "lower", false},              // mean fold build time over the traced window, from Stats().FoldDuration
	{"snap.folds", "count", "lower", false},             // folds published during the traced window
	{"snap.incremental_frac", "ratio", "higher", false}, // incremental folds / folds over the traced window
	{"index.view_hit_frac", "ratio", "higher", false},   // sampled view-backed reads whose Explain names a secondary view
	{"snap.pending_frac", "ratio", "lower", false},      // Stats() samples with PendingWrites > 0
	{"ladder.residual_frac", "ratio", "lower", false},   // 1 - (sum of layer self-times) / caller-observed latency; instrument health
	{"trace.overhead_frac", "ratio", "lower", false},    // 1 - traced ops_per_s / untraced ops_per_s, alternating slices of one run
}

// diagnostics are printed for every run but gate nothing.
var diagnostics = []metricDef{
	{"tail_ms", "ms", "lower", false},        // p99, or the highest percentile with >=10 samples beyond it; not an end-to-end metric because it does not repeat within a tenth on a 2-core shared box
	{"error_frac", "ratio", "lower", true},   // (failed + refused + wrong-answer operations) / attempted; 0 at seed, carried to the driver as failed/attempted
	{"rss_mb", "MB", "lower", false},         // peak resident set of the benchmark process (plus aplusd on served-point)
	{"recovery_s", "s", "lower", false},      // durable-singletons: re-Open after Close
	{"writer.late_ms", "ms", "lower", false}, // mixed-views: median lateness of the paced writer against its 20 ms schedule
}

// residualBound is the stated bound of ladder.residual_frac: a traced run
// whose layer self-times explain less of the caller's latency fails.
const residualBound = 0.20
