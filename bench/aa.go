package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// A/A mode: the same code measured against itself. Two sets of N runs per
// workload, interleaved A,B,A,B with the order swapped every round, each
// round on another seed, each run a fresh process exactly as the driver
// starts one. From them: per metric and workload, each set's spread
// (interquartile distance over the median, Python's statistics.quantiles
// arithmetic) and the shift of B's median against A's. A metric's bound is
//
//	max(5%, 3 x worst spread, 2 x worst shift), rounded up to a whole percent
//
// — 3 x because the driver wants every spread under a third of its bound —
// capped at the contract's 25%; exact counts get a 0.1% floor instead of
// 5%. setup_s is the exception the driver makes too: its spread is not
// judged (a 0.2 s set-up does not repeat within a tenth), only its shift,
// and it gets at least the largest bound of the others. The evidence file
// is always written; BENCHMARK.json is refused when a bound would have to
// exceed the cap.

const (
	boundFloor      = 0.05
	exactBoundFloor = 0.001
	boundCap        = 0.25
)

// aaRunRecord is one child run, as the driver would have seen it.
type aaRunRecord struct {
	Workload string          `json:"workload"`
	Set      string          `json:"set"`
	Round    int             `json:"round"`
	Seed     int64           `json:"seed"`
	WallS    float64         `json:"wall_s"`
	Output   json.RawMessage `json:"output"` // the run's last line
}

type childOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// aaSpread is one metric on one workload.
type aaSpread struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	SpreadA  float64 `json:"spread_a"`
	SpreadB  float64 `json:"spread_b"`
	Shift    float64 `json:"shift_b_worse_than_a"` // share of A's median; negative = B better
}

func runAA(e *env, rounds, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []aaRunRecord
	values := map[string]map[string][]float64{} // workload/metric -> set -> values
	var wall float64
	for round := 0; round < rounds; round++ {
		seed := e.seed + int64(round)
		for _, w := range workloadDefs {
			sets := []string{"A", "B"}
			if round%2 == 1 {
				sets = []string{"B", "A"}
			}
			for _, set := range sets {
				rec, child, err := aaChild(e, self, w.Name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d set %s: %w", w.Name, seed, set, err)
				}
				rec.Set, rec.Round = set, round
				runs = append(runs, rec)
				wall += rec.WallS
				if !child.Correct {
					return fmt.Errorf("%s seed %d set %s: %d of %d operations failed", w.Name, seed, set, child.Failed, child.Attempted)
				}
				for name, m := range child.Metrics {
					key := w.Name + "/" + name
					if values[key] == nil {
						values[key] = map[string][]float64{}
					}
					values[key][set] = append(values[key][set], m.Value)
				}
				fmt.Printf("round %d %-18s %s seed=%d wall=%.1fs ops_per_s=%.6g p50_ms=%.6g setup_s=%.4g\n", round, w.Name, set, seed,
					rec.WallS, child.Metrics["ops_per_s"].Value, child.Metrics["p50_ms"].Value, child.Metrics["setup_s"].Value)
			}
		}
	}

	var spreads []aaSpread
	bounds := map[string]float64{}
	fmt.Printf("\n%-18s %-22s %12s %12s %9s %9s %9s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "shift")
	for _, d := range endToEnd {
		worst := 0.0
		for _, w := range workloadDefs {
			a, b := values[w.Name+"/"+d.Name]["A"], values[w.Name+"/"+d.Name]["B"]
			s := aaSpread{Workload: w.Name, Metric: d.Name, MedianA: median(a), MedianB: median(b),
				SpreadA: relSpread(a), SpreadB: relSpread(b)}
			if s.MedianA != 0 {
				s.Shift = (s.MedianB - s.MedianA) / s.MedianA
				if d.Better == "higher" {
					s.Shift = -s.Shift
				}
			}
			spreads = append(spreads, s)
			worst = max(worst, 2*s.Shift)
			if d.Name != "setup_s" {
				worst = max(worst, 3*s.SpreadA, 3*s.SpreadB)
			}
			fmt.Printf("%-18s %-22s %12.6g %12.6g %8.2f%% %8.2f%% %+8.2f%%\n", w.Name, d.Name, s.MedianA, s.MedianB, 100*s.SpreadA, 100*s.SpreadB, 100*s.Shift)
		}
		floor, step := boundFloor, 100.0
		if d.Exact {
			floor, step = exactBoundFloor, 1000
		}
		bounds[d.Name] = math.Ceil(max(floor, worst)*step-1e-9) / step
	}
	for _, d := range endToEnd {
		if d.Name != "setup_s" {
			bounds["setup_s"] = max(bounds["setup_s"], bounds[d.Name])
		}
	}
	// The driver makes 4 + 22 x workloads runs and two builds in 3420 s.
	perRun := wall / float64(len(runs))
	fmt.Printf("\nmean wall time per run %.1f s; the driver's %d runs would take about %.0f s of its 3420 s\n",
		perRun, 4+22*len(workloadDefs), perRun*float64(4+22*len(workloadDefs)))

	evidence := map[string]any{
		"claim":       nil,
		"what":        "A/A: two interleaved sets of runs of the same code; every run made",
		"run_seconds": seconds,
		"rounds":      rounds,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"runs":        runs,
		"spreads":     spreads,
		"bounds":      bounds,
		"bound_rule":  "max(floor, 3 x worst spread, 2 x worst shift) rounded up; floor 5% (0.1% for exact counts); cap 25%; setup_s: shift only, and >= every other bound",
	}
	if err := writeJSON(filepath.Join(e.root, out), evidence); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	for _, d := range endToEnd {
		fmt.Printf("bound %-22s %.3f\n", d.Name, bounds[d.Name])
		if bounds[d.Name] > boundCap {
			return fmt.Errorf("%s needs a bound of %.2f, over the %.2f cap: its measured spread disqualifies it as an end-to-end metric; BENCHMARK.json not written",
				d.Name, bounds[d.Name], boundCap)
		}
	}
	if err := writeJSON(filepath.Join(e.root, "BENCHMARK.json"), benchmarkJSON(seconds, bounds)); err != nil {
		return err
	}
	fmt.Println("wrote BENCHMARK.json")
	return nil
}

// aaChild runs one workload in a fresh process and parses its last line.
func aaChild(e *env, self, workload string, seed int64, seconds int) (aaRunRecord, childOutput, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Dir = e.root
	cmd.Stderr = os.Stderr
	start := time.Now()
	stdout, err := cmd.Output()
	rec := aaRunRecord{Workload: workload, Seed: seed, WallS: time.Since(start).Seconds()}
	var child childOutput
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], &child); jerr != nil {
		return rec, child, fmt.Errorf("no result line (%v, exit: %v)", jerr, err)
	}
	rec.Output = append(json.RawMessage(nil), lines[len(lines)-1]...)
	return rec, child, nil
}

// benchmarkFile is the root BENCHMARK.json, in the driver's form and order.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []boundedDef  `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedDef struct {
	layerDef
	Bound float64 `json:"bound"`
}

func benchmarkJSON(seconds int, bounds map[string]float64) benchmarkFile {
	f := benchmarkFile{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"},
		RunSeconds: seconds, Workloads: workloadDefs}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, boundedDef{layerDef{d.Name, d.Unit, d.Better}, bounds[d.Name]})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	return f
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
