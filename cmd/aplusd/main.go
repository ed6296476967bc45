// Command aplusd serves one aplus database over TCP.
//
// It opens (or creates) a database and serves the line-oriented aplusd
// protocol: queries run under the caller's deadline, budget, and
// cancellation; writes go through the database's WAL; `stats` and `health`
// expose the observability counters an admission-controlling load balancer
// consumes.
//
// With -metrics, a second HTTP listener serves /metrics (Prometheus text
// exposition: latency histograms and counters), /debug/vars (expvar), and
// /debug/pprof/. With -slow-query, reads at least that slow are logged as
// structured JSON to stderr and the most recent one is captured in `stats`.
//
// Quickstart:
//
//	aplusd -dir /var/lib/aplus -addr 127.0.0.1:7687 &
//	aplusshell -connect 127.0.0.1:7687
//
// The same -dir reopens to the same state, recovered from the WAL and
// checkpoint. Without -dir the database is in-memory and its data is lost
// at exit.
//
// SIGINT or SIGTERM shuts down gracefully: the listener closes, in-flight
// queries are canceled and drained, the WAL is closed cleanly, and the
// process exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7687", "TCP listen address")
	dir := flag.String("dir", "", "durable database directory (empty = in-memory, data lost at exit)")
	noFsync := flag.Bool("no-fsync", false, "skip WAL fsync (faster, loses the crash-durability guarantee)")
	parallelism := flag.Int("parallelism", 0, "intra-query workers (0 = GOMAXPROCS)")
	planCache := flag.Int("plan-cache", 0, "compiled-plan cache entries (0 = default, <0 = disabled)")
	maxQueries := flag.Int("max-queries", 0, "concurrent-query admission gate (0 = unlimited)")
	admission := flag.String("admission", "queue", "admission policy at the max-queries gate: queue|reject")
	queryTimeout := flag.Duration("query-timeout", 0, "default query deadline (0 = none)")
	mergeThreshold := flag.Int("merge-threshold", 0, "pending delta ops before a fold (0 = default)")
	maxPending := flag.Int("max-pending-writes", 0, "reject writes while pending writes exceed this (0 = no backpressure)")
	maxRows := flag.Int64("max-rows", 0, "default per-query row-stream cap (0 = unlimited)")
	idle := flag.Duration("idle-timeout", 0, "disconnect connections idle at the prompt for this long (0 = never)")
	metricsAddr := flag.String("metrics", "", "HTTP observability listen address serving /metrics (Prometheus text), /debug/vars, /debug/pprof/ (empty = disabled)")
	slowQuery := flag.Duration("slow-query", 0, "slow-query threshold: reads at least this slow are counted, captured in stats, and logged as JSON to stderr (0 = disabled)")
	flag.Parse()

	var policy aplus.AdmissionPolicy
	switch *admission {
	case "queue":
		policy = aplus.AdmitQueue
	case "reject":
		policy = aplus.AdmitReject
	default:
		fmt.Fprintf(os.Stderr, "aplusd: bad -admission %q (queue|reject)\n", *admission)
		os.Exit(2)
	}

	db, err := open(*dir, aplus.OpenOptions{
		MergeThreshold:       *mergeThreshold,
		NoFsync:              *noFsync,
		QueryTimeout:         *queryTimeout,
		MaxConcurrentQueries: *maxQueries,
		AdmissionPolicy:      policy,
		SlowQueryThreshold:   *slowQuery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "aplusd:", err)
		os.Exit(1)
	}
	db.Parallelism = *parallelism
	db.PlanCacheSize = *planCache
	if *slowQuery > 0 {
		db.SlowQueryLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}

	srv := server.New(db, server.Options{
		Addr:             *addr,
		DefaultMaxRows:   *maxRows,
		MaxPendingWrites: *maxPending,
		IdleTimeout:      *idle,
	})
	if err := srv.Start(); err != nil {
		db.Close()
		fmt.Fprintln(os.Stderr, "aplusd:", err)
		os.Exit(1)
	}
	var metrics *server.MetricsServer
	if *metricsAddr != "" {
		metrics, err = server.StartMetrics(db, *metricsAddr)
		if err != nil {
			srv.Close()
			db.Close()
			fmt.Fprintln(os.Stderr, "aplusd: metrics:", err)
			os.Exit(1)
		}
		fmt.Printf("aplusd metrics on %s\n", metrics.Addr())
	}
	st := db.Stats()
	where := *dir
	if where == "" {
		where = "in-memory"
	}
	fmt.Printf("aplusd listening on %s (%s; %d vertices, %d edges)\n",
		srv.Addr(), where, st.NumVertices, st.NumEdges)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("aplusd: %v: shutting down\n", s)
	start := time.Now()
	if metrics != nil {
		metrics.Close()
	}
	srv.Close()
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "aplusd: close:", err)
		os.Exit(1)
	}
	fmt.Printf("aplusd: clean shutdown in %v\n", time.Since(start).Round(time.Millisecond))
}

// legacyClusterFile marks a directory laid out as a replicated cluster:
// its data lives in shard-NNN/ subdirectories, each a full replica, so
// opening the directory itself would serve an empty database.
const legacyClusterFile = "cluster.json"

// open opens the durable database in dir, or an in-memory one when dir is
// empty. A directory holding a legacy cluster.json is refused rather than
// served as a fresh, empty database beside the old shard data.
func open(dir string, o aplus.OpenOptions) (*aplus.DB, error) {
	if dir == "" {
		db := aplus.New()
		db.MergeThreshold = o.MergeThreshold
		db.QueryTimeout = o.QueryTimeout
		db.MaxConcurrentQueries = o.MaxConcurrentQueries
		db.AdmissionPolicy = o.AdmissionPolicy
		db.SlowQueryThreshold = o.SlowQueryThreshold
		return db, nil
	}
	legacy := filepath.Join(dir, legacyClusterFile)
	if _, err := os.Stat(legacy); err == nil {
		return nil, fmt.Errorf("refusing %s: replicated-cluster layout; each shard-NNN/ subdirectory holds a full replica and can be served with -dir %s",
			legacy, filepath.Join(dir, "shard-000"))
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return o.Open(dir)
}
