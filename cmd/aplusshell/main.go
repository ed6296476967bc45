// Command aplusshell is a small interactive shell over an aplus database.
//
// By default it starts with a synthetic in-memory dataset (configurable
// with flags). With -db <dir> it opens a durable database instead: every
// write is crash-safe before the prompt returns, and the same directory
// reopens to the same state in the next session. With -connect <addr> it
// drives a remote aplusd over TCP with the same REPL: Ctrl-C cancels
// in-flight remote queries, and governance errors carry the same meanings.
// It accepts:
//
//	MATCH ...                     run a query, print the match count
//	RECONFIGURE PRIMARY INDEXES   index DDL
//	CREATE 1-HOP VIEW ... / CREATE 2-HOP VIEW ... / DROP VIEW name
//	:explain MATCH ...            show the physical plan
//	:analyze MATCH ...            run the query with per-operator tracing
//	                              and render the EXPLAIN ANALYZE span tree
//	:agg FUNC [VAR.PROP] MATCH ...   aggregate over all matches: FUNC is
//	                              count|sum|min|max; sum/min/max read the
//	                              integer property PROP of matched vertex
//	                              VAR (e.g. :agg sum b.amount MATCH a-[e]->b)
//	:rows N MATCH ...             print the first N matches
//	:advise MATCH ... [; MATCH ...]   recommend indexes for a workload
//	                              (local sessions only)
//	:add vertex LABEL [k=v ...]   append a vertex (durable sessions)
//	:add edge SRC DST LABEL [k=v ...]   append an edge
//	:flush                        fold pending writes (and checkpoint -db)
//	:stats                        database, index, durability, plan-cache,
//	                              query governance counters, and latency
//	                              histograms (query, admission, fsync, fold)
//	:health                       durability health: degraded mode, last
//	                              WAL/checkpoint errors, retry backoff,
//	                              latency percentiles, and the last query
//	                              panic / slow query (if any)
//	:limits [...]                 show or set per-session query limits
//	                              (timeout, i-cost, rows)
//	:quit
//
// Ctrl-C while a query is running cancels that query (the shell keeps
// going); at the prompt, use :quit to exit.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/client"
	"github.com/aplusdb/aplus/internal/proto"
)

func main() {
	preset := flag.String("preset", "berkstan", "dataset preset: orkut|livejournal|wikitopcats|berkstan")
	scale := flag.Float64("scale", 1.0, "dataset scale")
	seed := flag.Int64("seed", 1, "dataset seed")
	dbDir := flag.String("db", "", "open (creating if needed) a durable database in this directory instead of a synthetic in-memory dataset")
	connect := flag.String("connect", "", "drive a remote aplusd at this address instead of an embedded database")
	flag.Parse()

	var b backend
	switch {
	case *connect != "":
		cl, err := client.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		b = &remoteBackend{cl: cl}
		st, err := b.Stats()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("aplus shell — remote %s (%d vertices, %d edges). Type :quit to exit.\n",
			*connect, st.NumVertices, st.NumEdges)
	case *dbDir != "":
		db, err := aplus.Open(*dbDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		b = localBackend{db}
		st := db.Stats()
		fmt.Printf("aplus shell — durable db %s (%d vertices, %d edges; replayed %d WAL ops, checkpoint epoch %d). Type :quit to exit.\n",
			*dbDir, st.NumVertices, st.NumEdges, st.ReplayedOps, st.CheckpointEpoch)
	default:
		db, err := aplus.Generate(aplus.DatasetConfig{
			Preset: *preset, Scale: *scale, Seed: *seed, Financial: true, Time: true,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		b = localBackend{db}
		st := db.Stats()
		fmt.Printf("aplus shell — %s (%d vertices, %d edges). Type :quit to exit.\n",
			*preset, st.NumVertices, st.NumEdges)
	}
	defer b.Close()

	s := &session{db: b}
	signal.Notify(s.sigint(), os.Interrupt)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("aplus> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := eval(s, line); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

// backend abstracts the shell over an embedded database and a remote
// server: same REPL, same governance semantics, swapped transport.
type backend interface {
	CountProfiledLimited(ctx context.Context, q string, l aplus.QueryLimits) (int64, aplus.Metrics, error)
	QueryLimited(ctx context.Context, q string, l aplus.QueryLimits, fn func(aplus.Row) bool) error
	Aggregate(ctx context.Context, q string, fn aplus.AggFunc, variable, prop string, l aplus.QueryLimits) (aplus.AggValue, aplus.Metrics, error)
	Explain(q string) (string, error)
	Analyze(ctx context.Context, q string, l aplus.QueryLimits) (*aplus.QueryTrace, error)
	Exec(ddl string) error
	Flush() error
	AddVertex(label string, props aplus.Props) (aplus.VertexID, error)
	AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error)
	Advise(workload []string, budgetBytes int64) ([]aplus.Recommendation, error)
	Stats() (aplus.Stats, error)
	Close() error
}

// localBackend adapts *aplus.DB (everything but Stats, Analyze, and
// Aggregate is the DB's own method set).
type localBackend struct{ *aplus.DB }

func (b localBackend) Stats() (aplus.Stats, error) { return b.DB.Stats(), nil }

func (b localBackend) Analyze(ctx context.Context, q string, l aplus.QueryLimits) (*aplus.QueryTrace, error) {
	return b.DB.ExplainAnalyzeLimited(ctx, q, l)
}

func (b localBackend) Aggregate(ctx context.Context, q string, fn aplus.AggFunc, variable, prop string, l aplus.QueryLimits) (aplus.AggValue, aplus.Metrics, error) {
	return b.DB.AggregateLimited(ctx, q, fn, variable, prop, l)
}

// remoteBackend adapts the wire client.
type remoteBackend struct{ cl *client.Client }

func (b *remoteBackend) CountProfiledLimited(ctx context.Context, q string, l aplus.QueryLimits) (int64, aplus.Metrics, error) {
	return b.cl.CountProfiledLimited(ctx, q, l)
}

func (b *remoteBackend) QueryLimited(ctx context.Context, q string, l aplus.QueryLimits, fn func(aplus.Row) bool) error {
	_, err := b.cl.QueryLimited(ctx, q, l, 0, func(r proto.Row) bool {
		return fn(aplus.Row{Vertices: r.V, Edges: r.E})
	})
	return err
}

func (b *remoteBackend) Explain(q string) (string, error) { return b.cl.Explain(q) }

func (b *remoteBackend) Analyze(ctx context.Context, q string, l aplus.QueryLimits) (*aplus.QueryTrace, error) {
	t, err := b.cl.Analyze(ctx, q, l)
	if err != nil {
		return nil, err
	}
	return &t, nil
}
func (b *remoteBackend) Aggregate(ctx context.Context, q string, fn aplus.AggFunc, variable, prop string, l aplus.QueryLimits) (aplus.AggValue, aplus.Metrics, error) {
	return b.cl.Aggregate(ctx, q, fn, variable, prop, l)
}

func (b *remoteBackend) Exec(ddl string) error { return b.cl.Exec(ddl) }
func (b *remoteBackend) Flush() error          { return b.cl.Flush() }

func (b *remoteBackend) AddVertex(label string, props aplus.Props) (aplus.VertexID, error) {
	return b.cl.AddVertex(label, props)
}

func (b *remoteBackend) AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error) {
	return b.cl.AddEdge(src, dst, label, props)
}

func (b *remoteBackend) Advise([]string, int64) ([]aplus.Recommendation, error) {
	return nil, fmt.Errorf(":advise is not supported over -connect (open the data directory locally)")
}

func (b *remoteBackend) Stats() (aplus.Stats, error) {
	st, err := b.cl.Stats()
	return st.Aggregate, err
}

func (b *remoteBackend) Close() error { return b.cl.Close() }

// session carries the shell's per-session governance settings and the
// SIGINT plumbing that cancels the in-flight query.
type session struct {
	db     backend
	limits aplus.QueryLimits
	sig    chan os.Signal
}

func (s *session) sigint() chan os.Signal {
	if s.sig == nil {
		s.sig = make(chan os.Signal, 1)
	}
	return s.sig
}

// queryCtx returns a context canceled by Ctrl-C for the duration of one
// query, plus a cleanup that must run when the query returns. A SIGINT
// delivered at the prompt (no query running) is drained at the start of
// the next query so it cannot cancel it spuriously.
func (s *session) queryCtx() (context.Context, func()) {
	select {
	case <-s.sigint():
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		select {
		case <-s.sigint():
			fmt.Println(" ^C canceling query")
			cancel()
		case <-done:
		}
	}()
	return ctx, func() { close(done); cancel() }
}

// explainQueryError renders governance failures with their partial-work
// detail instead of a bare error string.
func explainQueryError(err error) error {
	var be *aplus.BudgetError
	if errors.As(err, &be) {
		return fmt.Errorf("%w (partial: i-cost %d, rows %d)", err, be.Partial.ICost, be.PartialRows)
	}
	return err
}

func eval(s *session, line string) error {
	db := s.db
	lower := strings.ToLower(line)
	switch {
	case lower == ":quit" || lower == ":q" || lower == "exit":
		return errQuit
	case lower == ":stats":
		st, err := db.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("vertices=%d edges=%d graph=%dB primary(levels=%dB idlists=%dB) secondary=%dB\n",
			st.NumVertices, st.NumEdges, st.GraphBytes,
			st.PrimaryLevelBytes, st.PrimaryIDListBytes, st.SecondaryIndexBytes)
		if st.FoldsTotal > 0 || st.GroupCommits > 0 {
			fmt.Printf("folds: total=%d incremental=%d last(duration=%v dirty-owners=%d)",
				st.FoldsTotal, st.IncrementalFolds, st.LastFoldDuration, st.LastFoldDirtyOwners)
			if st.GroupCommits > 0 {
				fmt.Printf(" group-commits=%d(x%d ops)", st.GroupCommits, st.GroupedWrites)
			}
			fmt.Println()
		}
		if st.WALBytes > 0 || st.CheckpointEpoch > 0 {
			fmt.Printf("durable: wal=%dB checkpoint(epoch=%d %dB) replayed=%d pending=%d",
				st.WALBytes, st.CheckpointEpoch, st.CheckpointBytes, st.ReplayedOps, st.PendingWrites)
			if st.LastCheckpointError != "" {
				fmt.Printf(" checkpoint-error=%q", st.LastCheckpointError)
			}
			fmt.Println()
		}
		if st.PlanCacheHits > 0 || st.PlanCacheMisses > 0 {
			fmt.Printf("plan-cache: hits=%d misses=%d entries=%d\n",
				st.PlanCacheHits, st.PlanCacheMisses, st.PlanCacheEntries)
		}
		fmt.Printf("queries: in-flight=%d canceled=%d timed-out=%d rejected=%d slow=%d panicked=%d\n",
			st.QueriesInFlight, st.QueriesCanceled, st.QueriesTimedOut,
			st.QueriesRejected, st.SlowQueries, st.QueriesPanicked)
		printHist := func(name string, h aplus.LatencyStats) {
			if h.Count == 0 {
				return
			}
			fmt.Printf("%s: n=%d p50=%v p95=%v p99=%v max=%v\n",
				name, h.Count, h.P50, h.P95, h.P99, h.Max)
		}
		printHist("latency", st.QueryLatency)
		printHist("admission-wait", st.AdmissionWait)
		printHist("wal-fsync", st.WALFsync)
		printHist("fold", st.FoldDuration)
		return nil
	case lower == ":health":
		st, err := db.Stats()
		if err != nil {
			return err
		}
		if st.Degraded {
			fmt.Printf("DEGRADED (read-only): %s\n", st.DegradedCause)
			fmt.Println("writes fail fast; reads keep serving; restart the process to recover from the durable prefix")
		} else {
			fmt.Println("healthy: writes accepted")
		}
		if st.LastWALError != "" {
			fmt.Printf("last wal error: %s\n", st.LastWALError)
		}
		if st.LastCheckpointError != "" {
			fmt.Printf("last checkpoint error: %s\n", st.LastCheckpointError)
		}
		if st.RetryBackoff > 0 || st.MergeRetries > 0 {
			fmt.Printf("fold/checkpoint retries=%d backoff=%v\n", st.MergeRetries, st.RetryBackoff)
		}
		if st.LastQueryPanic != "" {
			fmt.Printf("last query panic (isolated, %d total): %s\n", st.QueriesPanicked, st.LastQueryPanic)
		}
		if h := st.QueryLatency; h.Count > 0 {
			fmt.Printf("query latency: p50=%v p95=%v p99=%v max=%v (%d queries)\n",
				h.P50, h.P95, h.P99, h.Max, h.Count)
		}
		if sq := st.LastSlowQuery; sq != nil {
			fmt.Printf("last slow query (%d total): %v %s (i-cost %d, rows %d, %s)\n",
				st.SlowQueries, sq.Duration.Round(time.Microsecond), sq.Query, sq.ICost, sq.Rows, sq.Outcome)
		}
		return nil
	case lower == ":limits" || strings.HasPrefix(lower, ":limits "):
		return evalLimits(s, strings.TrimSpace(line[len(":limits"):]))
	case lower == ":flush":
		if err := db.Flush(); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case strings.HasPrefix(lower, ":add "):
		return evalAdd(db, strings.TrimSpace(line[len(":add "):]))
	case strings.HasPrefix(lower, ":explain "):
		plan, err := db.Explain(line[len(":explain "):])
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	case strings.HasPrefix(lower, ":analyze "):
		ctx, finish := s.queryCtx()
		defer finish()
		t, err := db.Analyze(ctx, line[len(":analyze "):], s.limits)
		if t != nil {
			// A governance stop still yields the partial trace; render it
			// before reporting the stop.
			fmt.Print(t.Render())
		}
		if err != nil {
			return explainQueryError(err)
		}
		return nil
	case strings.HasPrefix(lower, ":agg "):
		return evalAgg(s, strings.TrimSpace(line[len(":agg "):]))
	case strings.HasPrefix(lower, ":rows "):
		rest := strings.TrimSpace(line[len(":rows "):])
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return fmt.Errorf("usage: :rows N MATCH ...")
		}
		n, err := strconv.Atoi(fields[0])
		if err != nil {
			return fmt.Errorf("bad row count %q", fields[0])
		}
		ctx, finish := s.queryCtx()
		defer finish()
		printed := 0
		err = db.QueryLimited(ctx, fields[1], s.limits, func(r aplus.Row) bool {
			fmt.Printf("%v %v\n", r.Vertices, r.Edges)
			printed++
			return printed < n
		})
		return explainQueryError(err)
	case strings.HasPrefix(lower, ":advise "):
		var workload []string
		for _, q := range strings.Split(line[len(":advise "):], ";") {
			if q = strings.TrimSpace(q); q != "" {
				workload = append(workload, q)
			}
		}
		recs, err := db.Advise(workload, 0)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			fmt.Println("no beneficial indexes found")
		}
		for _, r := range recs {
			fmt.Printf("benefit=%.0f mem=%dB  %s\n", r.Benefit, r.MemBytes, r.DDL)
		}
		return nil
	case strings.HasPrefix(lower, "match "):
		ctx, finish := s.queryCtx()
		defer finish()
		start := time.Now()
		n, m, err := db.CountProfiledLimited(ctx, line, s.limits)
		if err != nil {
			return explainQueryError(err)
		}
		fmt.Printf("%d matches (i-cost %d, %v)\n", n, m.ICost, time.Since(start).Round(time.Microsecond))
		return nil
	case strings.HasPrefix(lower, "reconfigure ") || strings.HasPrefix(lower, "create ") || strings.HasPrefix(lower, "drop "):
		if err := db.Exec(line); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	default:
		return fmt.Errorf("unrecognised input (MATCH ..., DDL, :explain, :analyze, :agg, :rows, :advise, :add, :flush, :stats, :health, :limits, :quit)")
	}
}

// evalAgg handles ":agg FUNC [VAR.PROP] MATCH ...": count takes no target;
// sum/min/max aggregate the integer property PROP of matched vertex VAR.
func evalAgg(s *session, rest string) error {
	const usage = "usage: :agg count MATCH ... | :agg sum|min|max VAR.PROP MATCH ..."
	name, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf(usage)
	}
	fn, err := aplus.ParseAggFunc(name)
	if err != nil {
		return err
	}
	rest = strings.TrimSpace(rest)
	var variable, prop string
	if fn != aplus.AggCount {
		target, q, ok := strings.Cut(rest, " ")
		if !ok {
			return fmt.Errorf(usage)
		}
		variable, prop, ok = strings.Cut(target, ".")
		if !ok || variable == "" || prop == "" {
			return fmt.Errorf("aggregate target %q is not VAR.PROP", target)
		}
		rest = strings.TrimSpace(q)
	}
	if !strings.HasPrefix(strings.ToLower(rest), "match ") {
		return fmt.Errorf(usage)
	}
	ctx, finish := s.queryCtx()
	defer finish()
	start := time.Now()
	v, m, err := s.db.Aggregate(ctx, rest, fn, variable, prop, s.limits)
	if err != nil {
		return explainQueryError(err)
	}
	if fn == aplus.AggCount {
		fmt.Printf("count=%d (i-cost %d, %v)\n", v.Value, m.ICost, time.Since(start).Round(time.Microsecond))
	} else if !v.Valid {
		fmt.Printf("%s(%s.%s)=NULL over %d matches (i-cost %d, %v)\n",
			fn, variable, prop, v.Rows, m.ICost, time.Since(start).Round(time.Microsecond))
	} else {
		fmt.Printf("%s(%s.%s)=%d over %d matches (i-cost %d, %v)\n",
			fn, variable, prop, v.Value, v.Rows, m.ICost, time.Since(start).Round(time.Microsecond))
	}
	return nil
}

// evalLimits shows or sets the session's query limits:
//
//	:limits                          show current limits
//	:limits timeout 500ms | off      per-query deadline
//	:limits icost 1000000 | off      i-cost budget
//	:limits rows 100000 | off        produced-row budget
//	:limits off                      clear everything
func evalLimits(s *session, rest string) error {
	show := func() {
		or := func(v string, unset bool) string {
			if unset {
				return "off"
			}
			return v
		}
		fmt.Printf("timeout=%s icost=%s rows=%s\n",
			or(s.limits.MaxDuration.String(), s.limits.MaxDuration == 0),
			or(strconv.FormatInt(s.limits.MaxICost, 10), s.limits.MaxICost == 0),
			or(strconv.FormatInt(s.limits.MaxRows, 10), s.limits.MaxRows == 0))
	}
	if rest == "" {
		show()
		return nil
	}
	fields := strings.Fields(strings.ToLower(rest))
	if len(fields) == 1 && fields[0] == "off" {
		s.limits = aplus.QueryLimits{}
		show()
		return nil
	}
	if len(fields) != 2 {
		return fmt.Errorf("usage: :limits [timeout DUR|off] [icost N|off] [rows N|off] [off]")
	}
	kind, val := fields[0], fields[1]
	setInt := func(dst *int64) error {
		if val == "off" {
			*dst = 0
		} else {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("bad limit %q", val)
			}
			*dst = n
		}
		return nil
	}
	switch kind {
	case "timeout":
		if val == "off" {
			s.limits.MaxDuration = 0
		} else {
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf("bad duration %q (try 500ms, 2s)", val)
			}
			s.limits.MaxDuration = d
		}
	case "icost":
		if err := setInt(&s.limits.MaxICost); err != nil {
			return err
		}
	case "rows":
		if err := setInt(&s.limits.MaxRows); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown limit %q (timeout, icost, rows)", kind)
	}
	show()
	return nil
}

// evalAdd handles ":add vertex LABEL [k=v ...]" and ":add edge SRC DST
// LABEL [k=v ...]". Values parse as int when possible, string otherwise.
func evalAdd(db backend, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return fmt.Errorf("usage: :add vertex LABEL [k=v ...] | :add edge SRC DST LABEL [k=v ...]")
	}
	parseProps := func(kvs []string) (aplus.Props, error) {
		if len(kvs) == 0 {
			return nil, nil
		}
		props := aplus.Props{}
		for _, kv := range kvs {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("property %q is not k=v", kv)
			}
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				props[k] = n
			} else {
				props[k] = v
			}
		}
		return props, nil
	}
	switch strings.ToLower(fields[0]) {
	case "vertex":
		if len(fields) < 2 {
			return fmt.Errorf("usage: :add vertex LABEL [k=v ...]")
		}
		props, err := parseProps(fields[2:])
		if err != nil {
			return err
		}
		v, err := db.AddVertex(fields[1], props)
		if err != nil {
			return err
		}
		fmt.Printf("vertex %d\n", v)
		return nil
	case "edge":
		if len(fields) < 4 {
			return fmt.Errorf("usage: :add edge SRC DST LABEL [k=v ...]")
		}
		src, err1 := strconv.ParseUint(fields[1], 10, 32)
		dst, err2 := strconv.ParseUint(fields[2], 10, 32)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("SRC and DST must be vertex ids")
		}
		props, err := parseProps(fields[4:])
		if err != nil {
			return err
		}
		e, err := db.AddEdge(aplus.VertexID(src), aplus.VertexID(dst), fields[3], props)
		if err != nil {
			return err
		}
		fmt.Printf("edge %d\n", e)
		return nil
	default:
		return fmt.Errorf("usage: :add vertex ... | :add edge ...")
	}
}
