package main

import (
	"fmt"
	"sort"
	"strings"

	aplus "github.com/aplusdb/aplus"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/workload"
)

// datasetSeed pins the generated graph. The graph is the benchmark's
// dataset, as LiveJournal is the paper's: at 4.8K vertices a power-law
// graph's few hubs carry most of the join work, so a different generator
// seed moves exec-bound latencies by 15-50% (measured over ten seeds), far
// beyond any regression bound. -seed drives what varies between runs of
// one dataset: anchors, request order and writer op logs.
const datasetSeed = 1

// pointGraph is served-point's dataset: LiveJournal preset, time property.
func (e *env) pointGraph() gen.Config {
	c := gen.LiveJournal
	c.NumVertices /= e.shrink
	c.Time = true
	c.Seed = datasetSeed
	return c
}

// joinGraph is the dataset of the other three workloads: the financial +
// time G_{2,4} LiveJournal preset.
func (e *env) joinGraph() gen.Config {
	c := gen.LiveJournal.WithLabels(2, 4)
	c.NumVertices /= e.shrink
	c.Financial, c.Time = true, true
	c.Seed = datasetSeed
	return c
}

// graphWriter is any write path a generated graph can be replayed through:
// aplus.DB, aplus.Batch, client.Client.
type graphWriter interface {
	AddVertex(label string, props aplus.Props) (aplus.VertexID, error)
	AddEdge(src, dst aplus.VertexID, label string, props aplus.Props) (aplus.EdgeID, error)
}

// dataset is a generated graph flattened into write-path arguments once,
// so that replaying it (the timed part of set-up) does no generator work.
type dataset struct {
	cfg      gen.Config
	vertices []vertexRec
	edges    []edgeRec
	outDeg   []int
}

type vertexRec struct {
	label string
	props aplus.Props
}

type edgeRec struct {
	src, dst aplus.VertexID
	label    string
	props    aplus.Props
}

func buildDataset(cfg gen.Config) *dataset {
	g := gen.Build(cfg)
	cat := g.Catalog()
	d := &dataset{cfg: cfg, outDeg: make([]int, g.NumVertices())}
	for v := 0; v < g.NumVertices(); v++ {
		id := aplus.VertexID(v)
		var props aplus.Props
		if cfg.Financial {
			props = aplus.Props{"acc": g.VertexProp(id, "acc").S, "city": g.VertexProp(id, "city").S}
		}
		d.vertices = append(d.vertices, vertexRec{cat.VertexLabelName(g.VertexLabel(id)), props})
	}
	for e := 0; e < g.NumEdges(); e++ {
		id := aplus.EdgeID(e)
		props := aplus.Props{}
		if cfg.Financial {
			props["amt"] = g.EdgeProp(id, "amt").I
			props["date"] = g.EdgeProp(id, "date").I
			props["currency"] = g.EdgeProp(id, "currency").S
		}
		if cfg.Time {
			props["time"] = g.EdgeProp(id, "time").I
		}
		d.edges = append(d.edges, edgeRec{g.Src(id), g.Dst(id), cat.EdgeLabelName(g.EdgeLabel(id)), props})
		d.outDeg[g.Src(id)]++
	}
	if !cfg.Financial {
		// The aggregate verb folds integer vertex properties only and the
		// plain presets have none, so each vertex carries its out-degree.
		for v := range d.vertices {
			d.vertices[v].props = aplus.Props{"deg": int64(d.outDeg[v])}
		}
	}
	return d
}

// load replays the dataset through w in ID order, so every write path
// assigns the generator's dense vertex and edge IDs.
func (d *dataset) load(w graphWriter) error {
	for i, v := range d.vertices {
		id, err := w.AddVertex(v.label, v.props)
		if err != nil {
			return fmt.Errorf("load vertex %d: %w", i, err)
		}
		if int(id) != i {
			return fmt.Errorf("load vertex %d: write path assigned id %d", i, id)
		}
	}
	for i, e := range d.edges {
		id, err := w.AddEdge(e.src, e.dst, e.label, e.props)
		if err != nil {
			return fmt.Errorf("load edge %d: %w", i, err)
		}
		if int(id) != i {
			return fmt.Errorf("load edge %d: write path assigned id %d", i, id)
		}
	}
	return nil
}

// timeAlpha is the 5%-selective bound on the time property, as the paper
// picks MagicRecs' alpha.
func (d *dataset) timeAlpha() int64 {
	ts := make([]int64, len(d.edges))
	for i, e := range d.edges {
		ts[i] = e.props["time"].(int64)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[len(ts)*5/100]
}

// The tuning the paper applies to its fraud and MagicRecs workloads: a
// second primary partitioning level on the neighbour's label, Table III's
// VPt, Table IV's VPc and Section V-D's EPc.
var tunedDDL = []string{
	"RECONFIGURE PRIMARY INDEXES PARTITION BY eadj.label, vnbr.label SORT BY vnbr.ID",
	"CREATE 1-HOP VIEW VPt MATCH vs-[eadj]->vd INDEX AS FW PARTITION BY eadj.label SORT BY eadj.time",
	"CREATE 1-HOP VIEW VPc MATCH vs-[eadj]->vd INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.city",
	"CREATE 2-HOP VIEW EPc MATCH vs-[eb]->vd-[eadj]->vnbr " +
		"WHERE eb.date < eadj.date, eadj.amt < eb.amt, eb.amt < eadj.amt + 100 " +
		"INDEX AS PARTITION BY vnbr.acc SORT BY vnbr.city",
}

// viewNames are the secondary indexes tunedDDL creates, as Explain spells
// them.
var viewNames = []string{"VPt", "VPc", "EPc"}

// namedQuery is one read of a pass. ViewBacked marks the queries the tuned
// configuration answers from a secondary index.
type namedQuery struct {
	Name       string
	Cypher     string
	ViewBacked bool
}

// workloadQueries picks the benchmark's reads from internal/workload,
// anchored on ID ranges of the pinned dataset: MR's a1 on the first 1/16 of
// the vertices, MF3's a3 and MF5's a1 on the first 1/mfAnchor.
func workloadQueries(d *dataset, mfAnchor int64) []namedQuery {
	nv := int64(len(d.vertices))
	sq := workload.SQ(d.cfg.VertexLabels, d.cfg.EdgeLabels)
	mr := workload.MR(d.timeAlpha(), nv/16)
	mf := workload.MF(workload.MFParams{Alpha: 100, City: "C7", A3MaxID: nv / mfAnchor, A1MaxID: nv / mfAnchor})
	pick := func(qs []workload.Query, name string, view bool) namedQuery {
		for _, q := range qs {
			if q.Name == name {
				return namedQuery{q.Name, q.Cypher, view}
			}
		}
		panic("bench: internal/workload has no query " + name)
	}
	return []namedQuery{
		pick(sq, "SQ2", false), pick(sq, "SQ3", false), pick(sq, "SQ7", false),
		pick(sq, "SQ8", false), pick(sq, "SQ11", false),
		pick(mr, "MR1", true), pick(mr, "MR2", true),
		pick(mf, "MF2", true), pick(mf, "MF3", true), pick(mf, "MF5", true),
	}
}

// joinQueries is embedded-join's fixed pass: each query runs for roughly
// 0.1-50 ms under the tuned configuration and the pass for ~100 ms. SQ7 and
// SQ11 join the issue's list because on G_{2,4} count pushdown answers
// SQ2/SQ3 in ~0.1 ms.
func joinQueries(d *dataset) []namedQuery { return workloadQueries(d, 20) }

// viewQueries is mixed-views' reader pass: MR1/MR2 (VPt) and MF3
// (VPc/EPc), with MF3 anchored twice as tightly because this pass mostly
// runs on the default plans a pending delta forces, where MF3 costs ~15x.
func viewQueries(d *dataset) []namedQuery {
	var out []namedQuery
	for _, q := range workloadQueries(d, 40) {
		if q.Name == "MR1" || q.Name == "MR2" || q.Name == "MF3" {
			out = append(out, q)
		}
	}
	return out
}

// perm is a Fisher-Yates permutation of 0..n-1 drawn from rng.
func perm(rng *gen.Rand, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// passOrder is the seed's order of a pass over n queries.
func passOrder(seed int64, n int) []int { return perm(gen.NewRand(seed^0x70617373), n) }

// request is one served-point request text.
type request struct {
	Kind    string // count | query | aggregate
	Text    string
	MaxRows int64         // query: server-side row cap
	Func    aplus.AggFunc // aggregate
	Var     string
	Prop    string
}

const (
	poolSize     = 64
	queryRowCap  = 32
	pointShapes  = 3
	hubExclusion = 0.02 // top share of vertices by out-degree never anchored
)

var aggFuncs = []aplus.AggFunc{aplus.AggSum, aplus.AggMin, aplus.AggMax}

// requestPool builds served-point's fixed pool: 48 count, 8 query (capped
// at 32 rows) and 8 aggregate requests, each a 1-hop, 2-hop or triangle
// pattern anchored on one vertex ID, in the seed's order. Anchors are a
// stratified sample over the out-degree ranking — request i draws from the
// i-th of 64 equal rank bands, hubs excluded — so every seed sees the same
// mix of cheap and dear anchors and every request stays well under a
// millisecond. 64 texts fit the 256-entry plan cache.
func requestPool(seed int64, d *dataset) []request {
	rng := gen.NewRand(seed ^ 0x706f6f6c)
	byRank := make([]int, len(d.vertices))
	for i := range byRank {
		byRank[i] = i
	}
	sort.Slice(byRank, func(i, j int) bool {
		a, b := byRank[i], byRank[j]
		if d.outDeg[a] != d.outDeg[b] {
			return d.outDeg[a] > d.outDeg[b]
		}
		return a < b
	})
	first := int(hubExclusion * float64(len(byRank)))
	band := (len(byRank) - first) / poolSize
	shapes := [pointShapes]string{
		"MATCH a-[e1]->b WHERE a.ID = %d",
		"MATCH a-[e1]->b-[e2]->c WHERE a.ID = %d",
		"MATCH a-[e1]->b-[e2]->c, c-[e3]->a WHERE a.ID = %d",
	}
	pool := make([]request, poolSize)
	for i := range pool {
		anchor := byRank[first+i*band+rng.Intn(band)]
		r := request{Kind: "count", Text: fmt.Sprintf(shapes[i%pointShapes], anchor)}
		// Kinds sit on fixed residues mod 8 so that, with three shapes,
		// every kind meets every shape and the whole rank range.
		switch i % 8 {
		case 3:
			r.Kind, r.MaxRows = "query", queryRowCap
		case 7:
			r.Kind, r.Func, r.Var, r.Prop = "aggregate", aggFuncs[i/8%len(aggFuncs)], "b", "deg"
		}
		pool[i] = r
	}
	// The seed's order is the cycle every connection walks; it interleaves
	// kinds, shapes and rank bands.
	order := perm(rng, poolSize)
	out := make([]request, poolSize)
	for i, j := range order {
		out[i] = pool[j]
	}
	return out
}

// poolText renders a pool for the determinism test and the trace file.
func poolText(pool []request) string {
	var b strings.Builder
	for _, r := range pool {
		fmt.Fprintf(&b, "%s|%s|%d|%s|%s|%s\n", r.Kind, r.Text, r.MaxRows, r.Func, r.Var, r.Prop)
	}
	return b.String()
}

// writeOp is one entry of a writer's op log. A delete names the writer's
// own DelOf-th add, because edge IDs are only known once the database has
// assigned them.
type writeOp struct {
	Del      bool
	DelOf    int
	Src, Dst aplus.VertexID
	Label    string
	Time     int64
}

// opLog generates one writer's deterministic op sequence.
type opLog struct {
	rng        *gen.Rand
	nv, labels int
	n          int   // ops generated
	adds       int   // adds generated
	live       []int // add indexes not yet deleted, oldest first
	delEvery   int   // every delEvery-th op is a delete (0 = never)
	keepLive   int   // deletes start once this many own edges are live
}

// newOpLog: writer w of the run seeded with seed, over a graph of nv
// vertices and the given edge-label count.
func newOpLog(seed int64, w int, d *dataset, delEvery, keepLive int) *opLog {
	return &opLog{
		rng: gen.NewRand(seed*31 + int64(w) + 0x6c6f67), nv: len(d.vertices),
		labels: max(d.cfg.EdgeLabels, 1), delEvery: delEvery, keepLive: keepLive,
	}
}

func (l *opLog) next() writeOp {
	l.n++
	if l.delEvery > 0 && l.n%l.delEvery == 0 && len(l.live) > l.keepLive {
		op := writeOp{Del: true, DelOf: l.live[0]}
		l.live = l.live[1:]
		return op
	}
	op := writeOp{
		Src: aplus.VertexID(l.rng.Intn(l.nv)), Dst: aplus.VertexID(l.rng.Intn(l.nv)),
		Label: fmt.Sprintf("E%d", l.rng.Intn(l.labels)), Time: int64(l.rng.Intn(1_000_000)),
	}
	l.live = append(l.live, l.adds)
	l.adds++
	return op
}
