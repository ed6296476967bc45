// Package client is the Go client for the aplusd wire protocol: it dials a
// server, issues requests over one connection, streams query rows to a
// callback, and translates wire error codes back into the embedded API's
// errors.Is-matchable sentinels — so code written against aplus.DB ports
// to a remote server by swapping the receiver.
//
// A Client serializes its requests (one in flight at a time; methods are
// safe for concurrent use). Context cancellation works mid-query: a
// watcher goroutine sends the protocol's `cancel` verb while the caller's
// goroutine keeps draining rows until the server's final error response.
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/proto"
)

// Client is a connection to an aplusd server.
type Client struct {
	mu sync.Mutex // serializes whole request/response exchanges
	wm sync.Mutex // serializes raw writes (request vs. async cancel)

	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// Dial connects and performs the `open` handshake.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
	if err := c.call(context.Background(), "open", nil, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("aplusd handshake: %w", err)
	}
	return c, nil
}

// Close sends `quit` (best effort) and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.send("quit", nil)
	return c.conn.Close()
}

func (c *Client) send(verb string, req any) error {
	c.wm.Lock()
	defer c.wm.Unlock()
	c.bw.WriteString(verb)
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		c.bw.WriteByte(' ')
		c.bw.Write(b)
	}
	c.bw.WriteByte('\n')
	return c.bw.Flush()
}

func (c *Client) sendCancel() {
	c.wm.Lock()
	c.bw.WriteString("cancel\n")
	c.bw.Flush()
	c.wm.Unlock()
}

// readLine reads one response line and splits the tag from the payload.
func (c *Client) readLine() (tag, payload string, err error) {
	line, err := c.br.ReadString('\n')
	if err != nil {
		return "", "", err
	}
	line = strings.TrimRight(line, "\r\n")
	if i := strings.IndexByte(line, ' '); i >= 0 {
		return line[:i], line[i+1:], nil
	}
	return line, "", nil
}

func decodeErr(payload string) error {
	var em proto.ErrMsg
	if err := json.Unmarshal([]byte(payload), &em); err != nil {
		return fmt.Errorf("aplusd: undecodable error response: %s", payload)
	}
	return proto.SentinelError(em.Code, em.Msg)
}

// call runs one request/response exchange with no row stream. A ctx
// watcher issues a protocol cancel so a server-side fan-out aborts and
// answers promptly; the response is always read, keeping the stream in
// sync.
func (c *Client) call(ctx context.Context, verb string, req, resp any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(verb, req); err != nil {
		return err
	}
	stop := c.watchCancel(ctx)
	defer stop()
	for {
		tag, payload, err := c.readLine()
		if err != nil {
			return fmt.Errorf("aplusd: connection lost: %w", err)
		}
		switch tag {
		case "ok":
			if resp == nil {
				return nil
			}
			return json.Unmarshal([]byte(payload), resp)
		case "err":
			return decodeErr(payload)
		case "row":
			// A non-query verb never streams rows; skip defensively.
			continue
		default:
			return fmt.Errorf("aplusd: unexpected response tag %q", tag)
		}
	}
}

// watchCancel sends `cancel` when ctx fires; the returned stop func must
// run before the next request goes out.
func (c *Client) watchCancel(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-ctx.Done():
			c.sendCancel()
		case <-quit:
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// Count returns the number of matches (remote CountCtx).
func (c *Client) Count(ctx context.Context, q string) (int64, error) {
	return c.CountLimited(ctx, q, aplus.QueryLimits{})
}

// CountLimited is Count with per-request governance limits.
func (c *Client) CountLimited(ctx context.Context, q string, limits aplus.QueryLimits) (int64, error) {
	var resp proto.CountResp
	err := c.call(ctx, "count", proto.CountReq{Q: q, Limits: proto.FromQueryLimits(limits)}, &resp)
	return resp.N, err
}

// CountProfiled returns the count plus the merged execution metrics.
func (c *Client) CountProfiled(ctx context.Context, q string) (int64, aplus.Metrics, error) {
	return c.CountProfiledLimited(ctx, q, aplus.QueryLimits{})
}

// CountProfiledLimited is CountProfiled with per-request governance limits.
func (c *Client) CountProfiledLimited(ctx context.Context, q string, limits aplus.QueryLimits) (int64, aplus.Metrics, error) {
	var resp proto.CountResp
	err := c.call(ctx, "profile", proto.CountReq{Q: q, Limits: proto.FromQueryLimits(limits)}, &resp)
	return resp.N, aplus.Metrics{ICost: resp.ICost, PredEvals: resp.PredEvals, EstimatedICost: resp.EstICost}, err
}

// Aggregate evaluates a count/sum/min/max aggregate on the server (remote
// DB.AggregateLimited); the result is bit-identical to an embedded run over
// the same data. The profiled metrics ride along, as with CountProfiled.
func (c *Client) Aggregate(ctx context.Context, q string, fn aplus.AggFunc, variable, prop string, limits aplus.QueryLimits) (aplus.AggValue, aplus.Metrics, error) {
	var resp proto.AggregateResp
	err := c.call(ctx, "aggregate", proto.AggregateReq{
		Q:      q,
		Func:   string(fn),
		Var:    variable,
		Prop:   prop,
		Limits: proto.FromQueryLimits(limits),
	}, &resp)
	v := aplus.AggValue{Rows: resp.Rows, Value: resp.Value, Valid: resp.Valid}
	m := aplus.Metrics{ICost: resp.ICost, PredEvals: resp.PredEvals, EstimatedICost: resp.EstICost}
	return v, m, err
}

// QueryResult reports how a Query stream ended.
type QueryResult struct {
	Rows      int64
	Truncated bool // the server's row cap stopped the stream
}

// Query streams matching rows to fn; fn returning false cancels the rest
// of the stream (not an error). maxRows caps the stream server-side
// (0 = the server's default cap).
func (c *Client) Query(ctx context.Context, q string, maxRows int64, fn func(proto.Row) bool) (QueryResult, error) {
	return c.QueryLimited(ctx, q, aplus.QueryLimits{}, maxRows, fn)
}

// QueryLimited is Query with per-request governance limits.
func (c *Client) QueryLimited(ctx context.Context, q string, limits aplus.QueryLimits, maxRows int64, fn func(proto.Row) bool) (QueryResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := proto.QueryReq{Q: q, Limits: proto.FromQueryLimits(limits), MaxRows: maxRows}
	if err := c.send("query", req); err != nil {
		return QueryResult{}, err
	}
	stop := c.watchCancel(ctx)
	defer stop()
	var (
		res     QueryResult
		stopped bool // fn said stop; we canceled and are draining
	)
	for {
		tag, payload, err := c.readLine()
		if err != nil {
			return res, fmt.Errorf("aplusd: connection lost: %w", err)
		}
		switch tag {
		case "row":
			if stopped {
				continue
			}
			var row proto.Row
			if err := json.Unmarshal([]byte(payload), &row); err != nil {
				return res, fmt.Errorf("aplusd: undecodable row: %w", err)
			}
			res.Rows++
			if !fn(row) {
				stopped = true
				c.sendCancel()
			}
		case "ok":
			var d proto.QueryDone
			if err := json.Unmarshal([]byte(payload), &d); err != nil {
				return res, err
			}
			res.Truncated = d.Truncated
			return res, nil
		case "err":
			err := decodeErr(payload)
			if stopped && isCanceled(err) {
				// Our own early stop; not an error for the caller.
				return res, nil
			}
			return res, err
		default:
			return res, fmt.Errorf("aplusd: unexpected response tag %q", tag)
		}
	}
}

func isCanceled(err error) bool { return errors.Is(err, aplus.ErrQueryCanceled) }

// Explain renders the plan the server would run.
func (c *Client) Explain(q string) (string, error) {
	var resp proto.ExplainResp
	err := c.call(context.Background(), "explain", proto.ExplainReq{Q: q}, &resp)
	return resp.Plan, err
}

// Analyze runs the query for real with per-operator tracing and returns
// the EXPLAIN ANALYZE trace.
func (c *Client) Analyze(ctx context.Context, q string, limits aplus.QueryLimits) (aplus.QueryTrace, error) {
	var resp proto.AnalyzeResp
	err := c.call(ctx, "analyze", proto.AnalyzeReq{Q: q, Limits: proto.FromQueryLimits(limits)}, &resp)
	return resp.Trace, err
}

// Exec runs an index DDL.
func (c *Client) Exec(ddl string) error {
	return c.call(context.Background(), "exec", proto.ExecReq{DDL: ddl}, nil)
}

// Flush folds pending deltas.
func (c *Client) Flush() error {
	return c.call(context.Background(), "flush", nil, nil)
}

// AddVertex appends a vertex.
func (c *Client) AddVertex(label string, props aplus.Props) (aplus.VertexID, error) {
	ps, err := proto.FromProps(props)
	if err != nil {
		return 0, err
	}
	var resp proto.AddVertexResp
	err = c.call(context.Background(), "addv", proto.AddVertexReq{Label: label, Props: ps}, &resp)
	return resp.ID, err
}

// AddEdge appends an edge.
func (c *Client) AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error) {
	ps, err := proto.FromProps(props)
	if err != nil {
		return 0, err
	}
	var resp proto.AddEdgeResp
	err = c.call(context.Background(), "adde", proto.AddEdgeReq{Src: src, Dst: dst, Label: label, Props: ps}, &resp)
	return resp.ID, err
}

// DeleteEdge tombstones an edge.
func (c *Client) DeleteEdge(e aplus.EdgeID) error {
	return c.call(context.Background(), "dele", proto.DeleteEdgeReq{ID: e}, nil)
}

// Stats fetches the served database's statistics.
func (c *Client) Stats() (proto.StatsResp, error) {
	var resp proto.StatsResp
	err := c.call(context.Background(), "stats", nil, &resp)
	return resp, err
}

// Health fetches the load-balancer health signals.
func (c *Client) Health() (proto.HealthResp, error) {
	var resp proto.HealthResp
	err := c.call(context.Background(), "health", nil, &resp)
	return resp, err
}
