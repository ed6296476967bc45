package main

import (
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1_000_000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		// The chosen percentile leaves >= 10 samples beyond it whenever any
		// candidate does, and no higher candidate would.
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*(100-p)/100 < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
}

// quartiles must be Python's statistics.quantiles(xs, n=4): the driver
// judges this benchmark's spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := relSpread(xs); got != 1 {
		t.Errorf("relSpread(1..10) = %g, want 1", got)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	e := &env{shrink: 8}
	ds := buildDataset(e.pointGraph())
	if a, b := poolText(requestPool(7, ds)), poolText(requestPool(7, ds)); a != b {
		t.Error("request pools differ for equal seeds")
	}
	if a, b := poolText(requestPool(7, ds)), poolText(requestPool(8, ds)); a == b {
		t.Error("request pools are identical for different seeds")
	}
	kinds := map[string]int{}
	for _, r := range requestPool(7, ds) {
		kinds[r.Kind]++
	}
	if kinds["count"] != 48 || kinds["query"] != 8 || kinds["aggregate"] != 8 {
		t.Errorf("pool mix = %v, want 48 count, 8 query, 8 aggregate", kinds)
	}
	log := func(seed int64, w int) string { return opLogText(newOpLog(seed, w, ds, 5, 0), 500) }
	if log(7, 0) != log(7, 0) {
		t.Error("writer op logs differ for equal seeds")
	}
	if log(7, 0) == log(8, 0) || log(7, 0) == log(7, 1) {
		t.Error("writer op logs are identical for different seeds or writers")
	}
	if !strings.Contains(log(7, 0), "Del:true") {
		t.Error("a 500-op log with delEvery=5 holds no delete")
	}
}

// Every workload, for one second on a shrunken dataset: all end-to-end
// metrics present and positive, nothing failed.
func TestSmokeEachWorkload(t *testing.T) {
	for name, run := range workloads {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, err := newEnv(3, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			e.shrink = 8
			defer e.clean.run()
			res, err := run(e)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Notes)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
					t.Errorf("%s = %v (present %v), want > 0", d.Name, v, ok)
				}
			}
		})
	}
}

// The packages ROADMAP items 1-3 plan to delete or collapse must not be
// imported here, or a later PR could not touch them without editing bench/.
func TestImportFence(t *testing.T) {
	const mod = "github.com/aplusdb/aplus"
	allowed := map[string]bool{mod: true}
	for _, p := range []string{"client", "proto", "query", "opt", "exec", "snap", "gen", "workload", "vfs"} {
		allowed[mod+"/internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources: %v", err)
	}
	for _, f := range files {
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, mod) && !allowed[path] {
				t.Errorf("%s imports %s, which is outside the benchmark's import fence", f, path)
			}
		}
	}
}

// BENCHMARK.json must be byte for byte what -aa writes for the bounds and
// window it holds: exactly the workloads and metrics this program prints.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(onDisk, &f); err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	want, err := json.MarshalIndent(benchmarkJSON(f.RunSeconds, bounds), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(want)+"\n" != string(onDisk) {
		t.Errorf("BENCHMARK.json is not what the program would write:\n%s", want)
	}
	for _, w := range workloadDefs {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// opLogText renders the first n ops of a log for the determinism test.
func opLogText(l *opLog, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%+v\n", l.next())
	}
	return b.String()
}
