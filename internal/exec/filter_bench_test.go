package exec

import (
	"fmt"
	"testing"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// The query-side evaluator on its own: one operator's terms bound against
// a graph (bindTerms, as a pipeline binds them) and evaluated against a
// binding whose two vertex slots walk the graph, per term kind. Every
// sub-benchmark must report 0 allocs/op.
//
//	go test -run '^$' -bench Filter -benchmem ./internal/exec

const (
	filterBenchVertices = 4096
	filterBenchCities   = 64
)

// filterBenchGraph builds filterBenchVertices vertices over two labels,
// each with an int age and a string city.
func filterBenchGraph(tb testing.TB) *storage.Graph {
	tb.Helper()
	g := storage.NewGraph()
	x := uint64(1)
	rnd := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	for v := 0; v < filterBenchVertices; v++ {
		id := g.AddVertex([]string{"A", "B"}[rnd(2)])
		if err := g.SetVertexProp(id, "age", storage.Int(int64(rnd(100)))); err != nil {
			tb.Fatal(err)
		}
		if err := g.SetVertexProp(id, storage.PropCity, storage.Str(fmt.Sprintf("C%d", rnd(filterBenchCities)))); err != nil {
			tb.Fatal(err)
		}
	}
	return g
}

func BenchmarkFilter(b *testing.B) {
	g := filterBenchGraph(b)
	for _, c := range []struct {
		name string
		term CompiledTerm
	}{
		{"int", CompiledTerm{Left: VertexOperand(0, "age"), Op: pred.LT, Right: VertexOperand(1, "age"), Shift: 3}},
		{"string-same-column-eq", CompiledTerm{Left: VertexOperand(0, storage.PropCity), Op: pred.EQ, Right: VertexOperand(1, storage.PropCity)}},
		{"label", CompiledTerm{Left: VertexOperand(0, pred.PropLabel), Op: pred.EQ, Right: ConstOperand(storage.Str("B"))}},
		{"missing-property", CompiledTerm{Left: VertexOperand(0, "missing"), Op: pred.EQ, Right: ConstOperand(storage.Int(1))}},
	} {
		b.Run(c.name, func(b *testing.B) {
			rt := &Runtime{G: g}
			terms := bindTerms(g, []CompiledTerm{c.term})
			bind := NewBinding(2, 0)
			hits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bind.V[0] = storage.VertexID(i % filterBenchVertices)
				bind.V[1] = storage.VertexID((i*7 + 3) % filterBenchVertices)
				if evalAll(rt, bind, terms) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "pass/op")
		})
	}
}
