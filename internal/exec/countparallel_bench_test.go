package exec_test

import (
	"fmt"
	"testing"

	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/opt"
	"github.com/aplusdb/aplus/internal/query"
)

// BenchmarkCountParallel counts an ID-anchored diamond, the shape of the
// MagicRecs query MR2, on a 4,800-vertex power-law graph at 1 and 2
// workers. Only the anchored ID range is scanned, so the second worker
// helps only if that range splits into several morsels.
func BenchmarkCountParallel(b *testing.B) {
	cfg := gen.LiveJournal
	cfg.Time, cfg.Seed = true, 1
	s, err := index.NewStore(gen.Build(cfg), index.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	q, err := query.Parse("MATCH a1-[e1]->a2, a1-[e2]->a3, a4-[e3]->a2, a4-[e4]->a3 " +
		"WHERE e1.time < 200000, e2.time < 200000, a1.ID < 300")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := opt.Optimize(s, q, opt.ModeDefault)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := exec.ParallelOptions{Workers: workers}
			var n int64
			for i := 0; i < b.N; i++ {
				if n, err = plan.CountParallel(exec.NewRuntime(s), o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "matches")
		})
	}
}
