package exec

import (
	"testing"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// The fetch layer on its own: one ListRef.fetchWith into an operator's
// slot plus the block decode of the result, per list kind, with no join
// around it. Every sub-benchmark must report 0 allocs/op.
//
//	go test -run '^$' -bench Fetch -benchmem ./internal/exec

const (
	fetchBenchVertices = 4096
	fetchBenchDegree   = 16
	fetchBenchCities   = 8
)

// fetchBenchGraph builds a seeded random multigraph: fetchBenchDegree out
// edges per vertex, an int city per vertex and an int date per edge.
func fetchBenchGraph(tb testing.TB) *storage.Graph {
	tb.Helper()
	g := storage.NewGraph()
	g.AddVertices(fetchBenchVertices, "A")
	x := uint64(1)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	for v := 0; v < fetchBenchVertices; v++ {
		if err := g.SetVertexProp(storage.VertexID(v), storage.PropCity, storage.Int(int64(rnd(fetchBenchCities)))); err != nil {
			tb.Fatal(err)
		}
	}
	for v := 0; v < fetchBenchVertices; v++ {
		for d := 0; d < fetchBenchDegree; d++ {
			e, err := g.AddEdge(storage.VertexID(v), storage.VertexID(rnd(fetchBenchVertices)), "W")
			if err != nil {
				tb.Fatal(err)
			}
			if err := g.SetEdgeProp(e, storage.PropDate, storage.Int(int64(rnd(1000)))); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return g
}

type fetchCase struct {
	name   string
	rt     *Runtime
	ref    ListRef
	owners int // owner slot values cycle over [0, owners)
}

func fetchCases(tb testing.TB) []fetchCase {
	tb.Helper()
	g := fetchBenchGraph(tb)
	s, err := index.NewStore(g, index.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	city := index.SortKey{Var: pred.VarNbr, Prop: storage.PropCity}
	vp, err := s.CreateVertexPartitioned(index.VPDef{
		View: index.View1Hop{Name: "VPc"},
		Dirs: []index.Direction{index.FW},
		Cfg:  index.Config{Sorts: []index.SortKey{city}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	ep, err := s.CreateEdgePartitioned(index.EPDef{
		View: index.View2Hop{
			Name: "EPt",
			Dir:  index.DestinationFW,
			Pred: pred.Predicate{}.And(pred.VarTerm(pred.VarBound, storage.PropDate, pred.LT, pred.VarAdj, storage.PropDate)),
		},
		Cfg: index.Config{},
	})
	if err != nil {
		tb.Fatal(err)
	}

	// One pending insert per owner, so every primary FW fetch splices.
	g2 := g.Clone()
	db := index.NewDeltaBuilder(index.NewDelta(), s.Primary(), g2)
	for v := 0; v < fetchBenchVertices; v++ {
		e, err := g2.AddEdge(storage.VertexID(v), storage.VertexID((v+7)%fetchBenchVertices), "W")
		if err != nil {
			tb.Fatal(err)
		}
		db.Insert(e)
	}
	if db.Impossible() {
		tb.Fatal("delta unexpectedly unbufferable")
	}

	dyn := VertexOperand(0, storage.PropCity)
	rt := NewRuntime(s)
	primary := ListRef{Kind: ListPrimary, Dir: index.FW}
	return []fetchCase{
		{"primary", rt, primary, fetchBenchVertices},
		{"vp-offset", rt, ListRef{Kind: ListVP, VP: vp, Dir: index.FW}, fetchBenchVertices},
		{"ep-offset", rt, ListRef{Kind: ListEP, EP: ep}, g.NumEdges()},
		{"vp-dyneq-segment", rt, ListRef{Kind: ListVP, VP: vp, Dir: index.FW,
			Seg: &Segment{Key: city, DynEq: &dyn}}, fetchBenchVertices},
		{"primary-delta-splice", NewRuntimeOver(s, g2, db.Freeze()), primary, fetchBenchVertices},
	}
}

func BenchmarkFetch(b *testing.B) {
	for _, c := range fetchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			rt, r := c.rt, &c.ref
			bind := NewBinding(1, 1)
			var sc opScratch
			sc.ensureLists(1)
			sc.slots[0].seg.bind(rt.G, r.Seg)
			fetch := func(i int) int {
				bind.V[0] = storage.VertexID(i % c.owners)
				bind.E[0] = storage.EdgeID(i % c.owners)
				sc.decode(0, r.fetchWith(rt, &sc, 0, bind, r.Codes))
				return len(sc.lists[0].nbrs)
			}
			for i := 0; i < c.owners; i++ { // warm: grow the decode and splice buffers
				fetch(i)
			}
			entries := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries += fetch(i)
			}
			b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
		})
	}
}
