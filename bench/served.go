package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/client"
	"github.com/aplusdb/aplus/internal/proto"
)

// servedClients is served-point's closed-loop connection count: nproc here.
const servedClients = 2

// aplusdBinary builds cmd/aplusd once per process into .bench_build.
func (e *env) aplusdBinary() (string, error) {
	e.daemonOnce.Do(func() {
		if e.daemonErr = os.MkdirAll(e.build, 0o755); e.daemonErr != nil {
			return
		}
		e.daemonBin = filepath.Join(e.build, "aplusd")
		build := exec.Command("go", "build", "-o", e.daemonBin, "./cmd/aplusd")
		build.Dir = e.root
		if out, err := build.CombinedOutput(); err != nil {
			e.daemonErr = fmt.Errorf("build aplusd: %v\n%s", err, out)
		}
	})
	return e.daemonBin, e.daemonErr
}

// daemon is a running aplusd child.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait has returned
}

// startDaemon spawns aplusd with default flags (in-memory, 2 shards) on a
// free port and waits for its banner. The child is reaped by stop, which
// the env's clean-up also calls on error, panic and signal exits.
func startDaemon(e *env) (*daemon, error) {
	bin, err := e.aplusdBinary()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	e.clean.add(d.stop)
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// "aplusd listening on 127.0.0.1:PORT (2 shards, ...)"
			if f := strings.Fields(sc.Text()); len(f) >= 4 && f[1] == "listening" {
				select {
				case addr <- f[3]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait() // the exit status of a SIGTERMed child says nothing
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.exited:
		return nil, errors.New("aplusd exited before printing its listen address")
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("aplusd printed no listen address within 20 s")
	}
}

// stop sends SIGTERM, waits for the clean shutdown, and kills after 5 s.
// It is idempotent.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// servedInst is one set-up served-point deployment.
type servedInst struct {
	d     *daemon
	conns []*client.Client
}

func (s *servedInst) close() {
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.d.stop()
}

// setupServed is the timed set-up: spawn aplusd, load the dataset over the
// wire, Flush, and serve one request (which builds both shards' indexes).
func setupServed(e *env, ds *dataset, first request) (*servedInst, error) {
	d, err := startDaemon(e)
	if err != nil {
		return nil, err
	}
	inst := &servedInst{d: d}
	for i := 0; i < servedClients; i++ {
		c, err := client.Dial(d.addr)
		if err != nil {
			inst.close()
			return nil, err
		}
		inst.conns = append(inst.conns, c)
	}
	if err := ds.load(inst.conns[0]); err != nil {
		inst.close()
		return nil, err
	}
	if err := inst.conns[0].Flush(); err != nil {
		inst.close()
		return nil, err
	}
	if _, err := inst.conns[0].Count(context.Background(), first.Text); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

// answer is what a request must return.
type answer struct {
	n   int64 // count; rows streamed for a query
	agg aplus.AggValue
}

// expectedAnswers runs the pool on an embedded DB holding the same graph:
// served answers must equal embedded ones.
func expectedAnswers(ref *aplus.DB, pool []request) ([]answer, error) {
	out := make([]answer, len(pool))
	for i, r := range pool {
		n, err := ref.Count(r.Text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Text, err)
		}
		out[i].n = n
		switch r.Kind {
		case "query":
			out[i].n = min(n, r.MaxRows)
		case "aggregate":
			if out[i].agg, err = ref.Aggregate(r.Text, r.Func, r.Var, r.Prop); err != nil {
				return nil, fmt.Errorf("%s: %w", r.Text, err)
			}
		}
	}
	return out, nil
}

// issue sends one pool request and checks its answer.
func issue(ctx context.Context, c *client.Client, r request, want answer) error {
	switch r.Kind {
	case "count":
		n, err := c.Count(ctx, r.Text)
		if err != nil {
			return err
		}
		if n != want.n {
			return fmt.Errorf("count %q = %d, embedded says %d", r.Text, n, want.n)
		}
	case "query":
		var rows int64
		res, err := c.Query(ctx, r.Text, r.MaxRows, func(proto.Row) bool { rows++; return true })
		if err != nil {
			return err
		}
		if rows != want.n || res.Rows != want.n {
			return fmt.Errorf("query %q streamed %d rows, embedded says %d", r.Text, rows, want.n)
		}
	case "aggregate":
		v, _, err := c.Aggregate(ctx, r.Text, r.Func, r.Var, r.Prop, aplus.QueryLimits{})
		if err != nil {
			return err
		}
		if v != want.agg {
			return fmt.Errorf("aggregate %s(%s.%s) %q = %+v, embedded says %+v", r.Func, r.Var, r.Prop, r.Text, v, want.agg)
		}
	}
	return nil
}

func runServedPoint(e *env) (*result, error) {
	res := newResult(e, "served-point")
	ds := buildDataset(e.pointGraph())
	pool := requestPool(e.seed, ds)

	// The embedded reference: the correctness gate's oracle and the
	// ladder's DB.CountCtx rung.
	ref := aplus.New()
	if err := ds.load(ref); err != nil {
		return nil, err
	}
	want, err := expectedAnswers(ref, pool)
	if err != nil {
		return nil, err
	}

	var inst *servedInst
	setups, err := e.repeatSetup(func() (func() error, error) {
		var err error
		inst, err = setupServed(e, ds, pool[0])
		return func() error { inst.close(); return nil }, err
	})
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ctx := context.Background()

	// Correctness gate: every text of the pool, served == embedded.
	for i, r := range pool {
		err := issue(ctx, inst.conns[0], r, want[i])
		res.check(err == nil, "gate: %v", err)
	}
	st, err := inst.conns[0].Stats()
	if err != nil {
		return nil, err
	}
	indexBytes(res, st.Aggregate)

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	// Each connection walks the pool's cycle from its own offset.
	op := func(c, seq int, tr *tracer) (int, error) {
		i := (seq + c*poolSize/servedClients) % poolSize
		sp := tr.begin("client."+pool[i].Kind, -1, reqID(c, seq))
		err := issue(ctx, inst.conns[c], pool[i], want[i])
		tr.end(sp)
		return i, err
	}
	loop := closedLoop(servedClients, e.warm(), e.dur, tr, op)
	res.addLoop(loop)
	res.Diag["rss_mb"] = peakRSSMB(strconv.Itoa(inst.d.cmd.Process.Pid))
	if !e.trace {
		return res.finishUntraced(loop, setups, fmt.Sprintf("%d connections, closed loop, pool of %d texts", servedClients, poolSize)), nil
	}

	after, err := inst.conns[0].Stats()
	if err != nil {
		return nil, err
	}
	statsDelta(res, st.Aggregate, after.Aggregate)
	res.Metrics["trace.overhead_frac"] = overheadFrac(loop)

	// The ladder's top rung is the workload's own mix again; the rungs
	// below replay its count requests, and only those are compared.
	var texts []string
	var counts []int64
	textOf := map[int]int{} // pool index -> ladder text
	for i, r := range pool {
		if r.Kind == "count" {
			textOf[i] = len(texts)
			texts, counts = append(texts, r.Text), append(counts, want[i].n)
		}
	}
	isCount := func(s opSample) bool { _, ok := textOf[s.text]; return ok }
	mir, err := newMirror(ds.cfg, nil, texts)
	if err != nil {
		return nil, err
	}
	defer mir.mgr.Close()
	rungs, err := readLadder(e, tr, servedClients, texts, counts, op, isCount, ref, mir)
	if err != nil {
		return nil, err
	}
	caller := textMean(loop.samples, isCount)
	rungs.fill(res, 1, caller)
	res.Metrics["proto.codec_us"] = us(codecTime(texts))
	return res.finishTraced(e, tr, map[string]any{"pool": poolText(pool)})
}
