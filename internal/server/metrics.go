package server

// The serving layer's observability endpoint: an optional HTTP listener
// (aplusd -metrics) exporting the database's stats as Prometheus text
// exposition, plus the Go runtime's expvar and pprof handlers. The endpoint
// is pull-only and read-only — it takes snapshots via Stats(), never
// touching the query path.

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	"github.com/aplusdb/aplus"
)

// MetricsServer serves /metrics (Prometheus text), /debug/vars (expvar),
// and /debug/pprof/ for one database.
type MetricsServer struct {
	db  *aplus.DB
	ln  net.Listener
	srv *http.Server
}

// The stats expvar is published exactly once per process (expvar.Publish
// panics on duplicate names); it reads through metricsDB, so tests that
// start several metrics servers see the most recent one's stats.
var (
	expvarOnce sync.Once
	metricsDB  atomic.Pointer[aplus.DB]
)

// StartMetrics binds addr and serves the observability endpoint in the
// background until Close.
func StartMetrics(db *aplus.DB, addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	metricsDB.Store(db)
	expvarOnce.Do(func() {
		expvar.Publish("aplus", expvar.Func(func() any { return metricsDB.Load().Stats() }))
	})
	m := &MetricsServer{db: db, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", m.serveMetrics)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m.srv = &http.Server{Handler: mux}
	go m.srv.Serve(ln)
	return m, nil
}

// Addr reports the bound address.
func (m *MetricsServer) Addr() string { return m.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (m *MetricsServer) Close() error { return m.srv.Close() }

// serveMetrics renders the database's stats in Prometheus text exposition
// format as unlabeled series.
func (m *MetricsServer) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeProm(w, m.db.Stats())
}

// histSeries maps the Stats latency histograms to metric names.
var histSeries = []struct {
	name string
	get  func(*aplus.Stats) aplus.LatencyStats
}{
	{"aplus_query_latency_seconds", func(s *aplus.Stats) aplus.LatencyStats { return s.QueryLatency }},
	{"aplus_admission_wait_seconds", func(s *aplus.Stats) aplus.LatencyStats { return s.AdmissionWait }},
	{"aplus_wal_fsync_seconds", func(s *aplus.Stats) aplus.LatencyStats { return s.WALFsync }},
	{"aplus_fold_seconds", func(s *aplus.Stats) aplus.LatencyStats { return s.FoldDuration }},
}

// gaugeSeries maps the Stats counters and gauges to metric names.
var gaugeSeries = []struct {
	name string
	get  func(*aplus.Stats) int64
}{
	{"aplus_vertices", func(s *aplus.Stats) int64 { return int64(s.NumVertices) }},
	{"aplus_edges", func(s *aplus.Stats) int64 { return int64(s.NumEdges) }},
	{"aplus_pending_writes", func(s *aplus.Stats) int64 { return int64(s.PendingWrites) }},
	{"aplus_wal_bytes", func(s *aplus.Stats) int64 { return s.WALBytes }},
	{"aplus_queries_in_flight", func(s *aplus.Stats) int64 { return s.QueriesInFlight }},
	{"aplus_queries_rejected_total", func(s *aplus.Stats) int64 { return s.QueriesRejected }},
	{"aplus_queries_canceled_total", func(s *aplus.Stats) int64 { return s.QueriesCanceled }},
	{"aplus_queries_timed_out_total", func(s *aplus.Stats) int64 { return s.QueriesTimedOut }},
	{"aplus_slow_queries_total", func(s *aplus.Stats) int64 { return s.SlowQueries }},
	{"aplus_queries_panicked_total", func(s *aplus.Stats) int64 { return s.QueriesPanicked }},
	{"aplus_plan_cache_hits_total", func(s *aplus.Stats) int64 { return s.PlanCacheHits }},
	{"aplus_plan_cache_misses_total", func(s *aplus.Stats) int64 { return s.PlanCacheMisses }},
	{"aplus_folds_total", func(s *aplus.Stats) int64 { return s.FoldsTotal }},
	{"aplus_degraded", func(s *aplus.Stats) int64 { return boolGauge(s.Degraded) }},
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// writeProm renders one stats snapshot.
func writeProm(w io.Writer, st aplus.Stats) {
	for _, h := range histSeries {
		fmt.Fprintf(w, "# TYPE %s histogram\n", h.name)
		h.get(&st).WriteProm(w, h.name)
	}
	for _, g := range gaugeSeries {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.name, g.name, g.get(&st))
	}
}
