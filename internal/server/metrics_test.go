package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/aplusdb/aplus"
)

// TestServedAnalyzeVerb round-trips EXPLAIN ANALYZE over the wire and
// checks the trace against the profile verb's metrics —
// the same bit-identical contract the embedded API pins.
func TestServedAnalyzeVerb(t *testing.T) {
	_, cl := startServer(t, aplus.New(), Options{})
	seed(t, cl, 30)

	want, wantM, err := cl.CountProfiled(context.Background(), triangleQ)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cl.Analyze(context.Background(), triangleQ, aplus.QueryLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count != want {
		t.Errorf("trace count = %d, want %d", tr.Count, want)
	}
	if tr.Metrics.ICost != wantM.ICost || tr.Metrics.PredEvals != wantM.PredEvals {
		t.Errorf("trace metrics = %+v, want %+v", tr.Metrics, wantM)
	}
	var sumICost int64
	for _, sp := range tr.Spans {
		sumICost += sp.ICost
	}
	if sumICost != wantM.ICost {
		t.Errorf("span i-cost sum = %d, want %d", sumICost, wantM.ICost)
	}
	if !strings.Contains(tr.Render(), "EXPLAIN ANALYZE") {
		t.Error("trace does not render")
	}
}

// TestMetricsEndpoint serves a database's /metrics over HTTP and asserts
// the Prometheus exposition carries unlabeled series for the latency
// histograms and key gauges.
func TestMetricsEndpoint(t *testing.T) {
	db := aplus.New()
	_, cl := startServer(t, db, Options{})
	seed(t, cl, 30)
	if _, err := cl.Count(context.Background(), pathQ); err != nil {
		t.Fatal(err)
	}

	m, err := StartMetrics(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	resp, err := http.Get("http://" + m.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE aplus_query_latency_seconds histogram",
		"\naplus_query_latency_seconds_count ",
		`aplus_query_latency_seconds_bucket{le="+Inf"}`,
		"# TYPE aplus_wal_fsync_seconds histogram",
		"# TYPE aplus_vertices gauge",
		"\naplus_vertices 30\n",
		"\naplus_plan_cache_hits_total ",
		"\naplus_degraded 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	if strings.Contains(text, "shard") {
		t.Errorf("/metrics still carries shard labels\n%s", text)
	}

	// The exported histogram count is the database's own.
	if n := db.Stats().QueryLatency.Count; n == 0 ||
		!strings.Contains(text, fmt.Sprintf("\naplus_query_latency_seconds_count %d\n", n)) {
		t.Errorf("latency count %d not exported\n%s", n, text)
	}

	// expvar and pprof ride on the same listener.
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		r, err := http.Get("http://" + m.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, r.Status)
		}
	}
}
