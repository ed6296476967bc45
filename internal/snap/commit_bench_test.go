package snap

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/storage"
)

// singletonOps generates a durable-singletons-like op stream: random edges
// carrying a time property, with every 5th op deleting the oldest edge the
// stream itself inserted.
type singletonOps struct {
	rng  *rand.Rand
	g    *storage.Graph // the base graph (vertex count, label names)
	n    int
	live []storage.EdgeID
}

func (w *singletonOps) stage(b *Batch) error {
	w.n++
	if w.n%5 == 0 && len(w.live) > 0 {
		e := w.live[0]
		w.live = w.live[1:]
		return b.DeleteEdge(e)
	}
	nv, cat := w.g.NumVertices(), w.g.Catalog()
	e, err := b.AddEdge(storage.VertexID(w.rng.Intn(nv)), storage.VertexID(w.rng.Intn(nv)),
		cat.EdgeLabelName(storage.LabelID(w.rng.Intn(cat.NumEdgeLabels()))),
		map[string]storage.Value{"time": storage.Int(int64(w.rng.Intn(1_000_000)))})
	w.live = append(w.live, e)
	return err
}

// BenchmarkCommitSingle times one in-memory singleton commit on the
// durable-singletons graph (LiveJournal G_{2,4} with financial and time
// properties, seed 1) at three pending-delta sizes. MergeThreshold is
// raised so no fold runs, and every 64 ops the manager is rewound to the
// prefilled snapshot, so pending stays within 64 ops of its nominal size.
func BenchmarkCommitSingle(b *testing.B) {
	cfg := gen.LiveJournal.WithLabels(2, 4)
	cfg.Financial, cfg.Time = true, true
	cfg.Seed = 1
	g := gen.Build(cfg)
	for _, pending := range []int{0, 2048, 4000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			m, err := NewManager(g, index.DefaultConfig(), Options{MergeThreshold: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			w := &singletonOps{rng: rand.New(rand.NewSource(1)), g: g}
			bt := m.Begin()
			for i := 0; i < pending; i++ {
				if err := w.stage(bt); err != nil {
					b.Fatal(err)
				}
			}
			if err := bt.Commit(); err != nil {
				b.Fatal(err)
			}
			start, n, live := m.Current(), w.n, w.live
			if got := start.delta.Pending(); got != pending {
				b.Fatalf("prefilled %d pending ops, want %d", got, pending)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%64 == 0 {
					b.StopTimer()
					m.mu.Lock()
					m.publishLocked(&Snapshot{baseGen: start.baseGen, store: start.store, graph: start.graph, delta: start.delta})
					m.mu.Unlock()
					w.n, w.live = n, append([]storage.EdgeID(nil), live...)
					b.StartTimer()
				}
				if err := m.CommitSingle(w.stage); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
