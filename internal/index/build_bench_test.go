package index_test

import (
	"testing"

	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/harness"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/storage"
)

// BenchmarkBuildEdgePartitioned builds Section V-D's EPc view over the
// financial G_{2,4} LiveJournal-like graph, on the Dp primary (partitioned
// by edge and neighbour label) the paper tunes that workload with. It
// reports the build's cost per candidate (eb, eadj) pair, the pairs the view
// predicate is evaluated on: EPc is Destination-FW, so each live bound edge
// pairs with every live out-edge of its destination.
func BenchmarkBuildEdgePartitioned(b *testing.B) {
	cfg := gen.LiveJournal.WithLabels(2, 4)
	cfg.Financial, cfg.Time, cfg.Seed = true, true, 1
	g := gen.Build(cfg)
	p, err := index.BuildPrimary(g, harness.ConfigDp())
	if err != nil {
		b.Fatal(err)
	}
	def := harness.EPcDef(100)
	if def.View.Dir != index.DestinationFW {
		b.Fatalf("EPc is %v; the pair count below assumes Destination-FW", def.View.Dir)
	}
	outDeg := make([]int64, g.NumVertices())
	for e := 0; e < g.NumEdges(); e++ {
		if !g.EdgeDeleted(storage.EdgeID(e)) {
			outDeg[g.Src(storage.EdgeID(e))]++
		}
	}
	var pairs int64
	for e := 0; e < g.NumEdges(); e++ {
		if !g.EdgeDeleted(storage.EdgeID(e)) {
			pairs += outDeg[g.Dst(storage.EdgeID(e))]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.BuildEdgePartitioned(p, def); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*pairs), "ns/pair")
	b.ReportMetric(float64(pairs), "pairs")
}
