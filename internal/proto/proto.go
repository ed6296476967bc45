// Package proto defines the aplusd wire protocol shared by the server and
// the client: a line-oriented TCP protocol where every request is one line
// `<verb> <json>` and every response line is `ok <json>`, `err <json>`, or
// (while a query streams) `row <json>`. Payloads are single-line JSON, so
// the protocol is both trivially framed and debuggable with netcat.
//
// Verbs: open, count, profile, aggregate, query, explain, analyze, exec,
// flush, addv, adde, dele, stats, health, cancel, quit. `cancel` aborts the in-flight query
// on the same connection and never gets a response line of its own (the
// canceled query's final `err` is the acknowledgement); every other verb
// gets exactly one final `ok`/`err`.
//
// Errors carry a machine-readable code that the client maps back onto the
// embedded API's errors.Is-matchable sentinels, so remote callers handle
// cancellation, timeouts, budgets, admission rejections, and degraded mode
// exactly like embedded ones.
package proto

import (
	"errors"
	"fmt"
	"time"

	"github.com/aplusdb/aplus"
)

// Error codes carried in ErrMsg.Code.
const (
	CodeCanceled     = "canceled"
	CodeTimeout      = "timeout"
	CodeBudget       = "budget"
	CodeAdmission    = "admission"
	CodePanic        = "panic"
	CodeDegraded     = "degraded"
	CodeClosed       = "closed"
	CodeBackpressure = "backpressure"
	CodeBadRequest   = "bad_request"
	CodeInternal     = "internal"
)

// ErrBackpressure is the client-side sentinel for CodeBackpressure: the
// server refused a write because the database's pending-write backlog is
// over its admission threshold.
var ErrBackpressure = fmt.Errorf("aplusd: write rejected by backpressure")

// ErrMsg is the payload of an `err` response.
type ErrMsg struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// ErrorCode maps an engine error to its wire code (server side).
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case isErr(err, aplus.ErrQueryTimeout):
		return CodeTimeout
	case isErr(err, aplus.ErrQueryCanceled):
		return CodeCanceled
	case isErr(err, aplus.ErrBudgetExceeded):
		return CodeBudget
	case isErr(err, aplus.ErrAdmissionRejected):
		return CodeAdmission
	case isErr(err, aplus.ErrQueryPanic):
		return CodePanic
	case isErr(err, aplus.ErrDegraded):
		return CodeDegraded
	case isErr(err, aplus.ErrClosed):
		return CodeClosed
	case isErr(err, ErrBackpressure):
		return CodeBackpressure
	default:
		return CodeInternal
	}
}

// SentinelError reconstructs a client-side error wrapping the matching
// sentinel, so errors.Is works across the wire.
func SentinelError(code, msg string) error {
	var sentinel error
	switch code {
	case CodeTimeout:
		sentinel = aplus.ErrQueryTimeout
	case CodeCanceled:
		sentinel = aplus.ErrQueryCanceled
	case CodeBudget:
		sentinel = aplus.ErrBudgetExceeded
	case CodeAdmission:
		sentinel = aplus.ErrAdmissionRejected
	case CodePanic:
		sentinel = aplus.ErrQueryPanic
	case CodeDegraded:
		sentinel = aplus.ErrDegraded
	case CodeClosed:
		sentinel = aplus.ErrClosed
	case CodeBackpressure:
		sentinel = ErrBackpressure
	default:
		return fmt.Errorf("aplusd: %s: %s", code, msg)
	}
	return fmt.Errorf("%w: remote: %s", sentinel, msg)
}

func isErr(err, target error) bool { return errors.Is(err, target) }

// Limits is aplus.QueryLimits on the wire (duration in milliseconds so the
// JSON stays human-writable).
type Limits struct {
	MaxICost      int64 `json:"max_icost,omitempty"`
	MaxRows       int64 `json:"max_rows,omitempty"`
	MaxDurationMS int64 `json:"max_duration_ms,omitempty"`
}

// ToQueryLimits converts wire limits to engine limits.
func (l Limits) ToQueryLimits() aplus.QueryLimits {
	return aplus.QueryLimits{
		MaxICost:    l.MaxICost,
		MaxRows:     l.MaxRows,
		MaxDuration: time.Duration(l.MaxDurationMS) * time.Millisecond,
	}
}

// FromQueryLimits converts engine limits to wire limits.
func FromQueryLimits(l aplus.QueryLimits) Limits {
	return Limits{
		MaxICost:      l.MaxICost,
		MaxRows:       l.MaxRows,
		MaxDurationMS: int64(l.MaxDuration / time.Millisecond),
	}
}

// CountReq asks for a match count (`count`, or `profile` to also report
// metrics).
type CountReq struct {
	Q      string `json:"q"`
	Limits Limits `json:"limits,omitempty"`
}

// CountResp carries the count and (for `profile`) the profiled metrics.
type CountResp struct {
	N         int64   `json:"n"`
	ICost     int64   `json:"icost,omitempty"`
	PredEvals int64   `json:"pred_evals,omitempty"`
	EstICost  float64 `json:"est_icost,omitempty"`
}

// AggregateReq asks for an aggregate (`aggregate`): Func is
// count/sum/min/max; Var and Prop name the aggregated vertex variable and
// its integer property (ignored for count).
type AggregateReq struct {
	Q      string `json:"q"`
	Func   string `json:"func"`
	Var    string `json:"var,omitempty"`
	Prop   string `json:"prop,omitempty"`
	Limits Limits `json:"limits,omitempty"`
}

// AggregateResp carries the aggregate plus profiled metrics.
type AggregateResp struct {
	Rows      int64   `json:"rows"`
	Value     int64   `json:"value"`
	Valid     bool    `json:"valid"`
	ICost     int64   `json:"icost,omitempty"`
	PredEvals int64   `json:"pred_evals,omitempty"`
	EstICost  float64 `json:"est_icost,omitempty"`
}

// QueryReq streams matching rows. MaxRows caps the stream (0 = server
// default): the server stops the query cleanly after that many rows and
// sets Truncated — distinct from the Limits.MaxRows budget, which errors.
type QueryReq struct {
	Q       string `json:"q"`
	Limits  Limits `json:"limits,omitempty"`
	MaxRows int64  `json:"cap,omitempty"`
}

// Row is one streamed match: variable name to matched entity ID.
type Row struct {
	V map[string]aplus.VertexID `json:"v"`
	E map[string]aplus.EdgeID   `json:"e,omitempty"`
}

// QueryDone is the final `ok` payload of a query stream.
type QueryDone struct {
	Rows      int64 `json:"rows"`
	Truncated bool  `json:"truncated,omitempty"`
}

// ExplainReq/ExplainResp render a plan.
type ExplainReq struct {
	Q string `json:"q"`
}

type ExplainResp struct {
	Plan string `json:"plan"`
}

// AnalyzeReq runs the query for real with per-operator tracing
// (EXPLAIN ANALYZE).
type AnalyzeReq struct {
	Q      string `json:"q"`
	Limits Limits `json:"limits,omitempty"`
}

// AnalyzeResp carries the trace: span sums are bit-identical to what
// `profile` reports for the same query.
type AnalyzeResp struct {
	Trace aplus.QueryTrace `json:"trace"`
}

// ExecReq runs an index DDL.
type ExecReq struct {
	DDL string `json:"ddl"`
}

// Prop is one typed property value; exactly one of S/I/F/B is set. A typed
// union instead of map[string]any keeps int properties ints across the
// JSON round-trip (plain any would coerce them to float64).
type Prop struct {
	K string   `json:"k"`
	S *string  `json:"s,omitempty"`
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
	B *bool    `json:"b,omitempty"`
}

// ToProps converts wire props to engine props.
func ToProps(ps []Prop) aplus.Props {
	if len(ps) == 0 {
		return nil
	}
	m := make(aplus.Props, len(ps))
	for _, p := range ps {
		switch {
		case p.S != nil:
			m[p.K] = *p.S
		case p.I != nil:
			m[p.K] = *p.I
		case p.F != nil:
			m[p.K] = *p.F
		case p.B != nil:
			m[p.K] = *p.B
		default:
			m[p.K] = nil
		}
	}
	return m
}

// FromProps converts engine props to wire props.
func FromProps(props aplus.Props) ([]Prop, error) {
	if len(props) == 0 {
		return nil, nil
	}
	ps := make([]Prop, 0, len(props))
	for k, v := range props {
		p := Prop{K: k}
		switch x := v.(type) {
		case nil:
		case string:
			p.S = &x
		case int:
			i := int64(x)
			p.I = &i
		case int64:
			p.I = &x
		case float64:
			p.F = &x
		case bool:
			p.B = &x
		default:
			return nil, fmt.Errorf("unsupported property type %T", v)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// AddVertexReq/AddEdgeReq/DeleteEdgeReq are the write verbs.
type AddVertexReq struct {
	Label string `json:"label"`
	Props []Prop `json:"props,omitempty"`
}

type AddVertexResp struct {
	ID aplus.VertexID `json:"id"`
}

type AddEdgeReq struct {
	Src   aplus.VertexID `json:"src"`
	Dst   aplus.VertexID `json:"dst"`
	Label string         `json:"label"`
	Props []Prop         `json:"props,omitempty"`
}

type AddEdgeResp struct {
	ID aplus.EdgeID `json:"id"`
}

type DeleteEdgeReq struct {
	ID aplus.EdgeID `json:"id"`
}

// StatsResp answers `stats` with the served database's statistics.
type StatsResp struct {
	Aggregate aplus.Stats `json:"aggregate"`
}

// HealthResp answers `health` with the signals an LB would gate on.
type HealthResp struct {
	OK              bool  `json:"ok"`
	Degraded        bool  `json:"degraded,omitempty"`
	QueriesInFlight int64 `json:"queries_in_flight"`
	PendingWrites   int   `json:"pending_writes"`
}
