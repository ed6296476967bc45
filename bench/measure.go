package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program under test.
// Spans of one request share Req; Parent is the index of the span that
// caused this one (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// maxSpans bounds the trace file; served-point alone would otherwise write
// a span per 40 µs request.
const maxSpans = 200_000

// tracer keeps spans in memory until the run ends. A nil tracer is
// disarmed: every method is a no-op, so the untraced run pays one nil test.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 when disarmed or full).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// write dumps the spans, plus whatever tables the traced run derived from
// them, to bench/out/trace-<workload>.json.
func (t *tracer) write(root, workload string, extra map[string]any) (string, error) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	doc := map[string]any{"workload": workload, "spans": t.spans, "dropped_spans": t.dropped}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}

// traceSlice is how long a traced run keeps spans armed before it disarms
// them for as long again; the two classes of slice give trace.overhead_frac
// from one run, interleaved so drift hits both alike.
const traceSlice = 500 * time.Millisecond

// opSample is one completed operation of a closed loop.
type opSample struct {
	lat    time.Duration
	done   time.Duration // completion, as an offset into the measured window
	text   int           // which request text / query (for per-text medians)
	traced bool
}

// loopResult is what a closed loop measured.
type loopResult struct {
	samples   []opSample
	attempted int64 // every operation issued, warm-up included
	failed    int64
	firstErr  error
	dur       time.Duration // the window asked for
	window    time.Duration // until the last operation returned
	panicked  any           // a client goroutine's panic, re-raised by closedLoop
}

func (r *loopResult) latencies() []time.Duration {
	out := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.lat
	}
	return out
}

func (r *loopResult) completions() []time.Duration {
	out := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.done
	}
	return out
}

// opFunc runs operation seq of one client. tr is non-nil only while spans
// are armed. It reports which text it ran and whether the answer was right.
type opFunc func(client, seq int, tr *tracer) (text int, err error)

// closedLoop runs `clients` callers, each issuing its next operation only
// when the previous one has returned, for warm (unrecorded) and then dur.
// With a tracer, spans are armed on alternating traceSlice intervals.
func closedLoop(clients int, warm, dur time.Duration, tr *tracer, op opFunc) *loopResult {
	start := time.Now()
	t0 := start.Add(warm)
	stop := t0.Add(dur)
	parts := make([]loopResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			// Carried to the caller's goroutine, whose deferred clean-up
			// (the aplusd child, temp directories) then runs.
			defer func() { p.panicked = recover() }()
			for seq := 0; ; seq++ {
				begin := time.Now()
				if !begin.Before(stop) {
					return
				}
				var armed *tracer
				if tr != nil && !begin.Before(t0) && begin.Sub(t0)/traceSlice%2 == 1 {
					armed = tr
				}
				text, err := op(c, seq, armed)
				end := time.Now()
				p.attempted++
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				if !begin.Before(t0) {
					p.samples = append(p.samples, opSample{end.Sub(begin), end.Sub(t0), text, armed != nil})
				}
			}
		}(c)
	}
	wg.Wait()
	res := &loopResult{dur: dur, window: time.Since(t0)}
	for i := range parts {
		res.samples = append(res.samples, parts[i].samples...)
		res.attempted += parts[i].attempted
		res.failed += parts[i].failed
		if res.firstErr == nil {
			res.firstErr = parts[i].firstErr
		}
		if parts[i].panicked != nil {
			panic(parts[i].panicked)
		}
	}
	return res
}

// textMean is the latency of "one average operation" that both survives
// outliers and adds up across layers: the median per request text, then
// the mean over texts (every text is issued equally often).
func textMean(samples []opSample, keep func(opSample) bool) time.Duration {
	by := map[int][]float64{}
	for _, s := range samples {
		if keep == nil || keep(s) {
			by[s.text] = append(by[s.text], float64(s.lat))
		}
	}
	if len(by) == 0 {
		return 0
	}
	var sum float64
	for _, ls := range by {
		sum += median(ls)
	}
	return time.Duration(sum / float64(len(by)))
}

// overheadFrac compares the rate of armed and disarmed slices of one
// traced loop, over an even number of whole slices so both classes cover
// the same time.
func overheadFrac(r *loopResult) float64 {
	slices := int(r.dur/traceSlice) &^ 1
	var on, off float64
	for _, s := range r.samples {
		if int((s.done-s.lat)/traceSlice) >= slices {
			continue
		}
		if s.traced {
			on++
		} else {
			off++
		}
	}
	if off == 0 {
		return 0
	}
	return 1 - on/off
}
