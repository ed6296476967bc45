package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/aplusdb/aplus/internal/enc"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// incrementalTestGraph builds a labeled multigraph with guaranteed parallel
// edges, int edge weights (2-hop predicates), and vertex cities (string
// sort keys and 1-hop predicates).
func incrementalTestGraph(nv, ne int, rng *rand.Rand) *storage.Graph {
	g := storage.NewGraph()
	cities := []string{"ams", "bos", "car", "den"}
	for i := 0; i < nv; i++ {
		label := "A"
		if i%2 == 1 {
			label = "B"
		}
		v := g.AddVertex(label)
		if err := g.SetVertexProp(v, "city", storage.Str(cities[rng.Intn(len(cities))])); err != nil {
			panic(err)
		}
	}
	labels := []string{"X", "Y"}
	addEdge := func(src, dst storage.VertexID) {
		e, err := g.AddEdge(src, dst, labels[rng.Intn(len(labels))])
		if err != nil {
			panic(err)
		}
		if err := g.SetEdgeProp(e, "w", storage.Int(int64(rng.Intn(50)))); err != nil {
			panic(err)
		}
	}
	for i := 0; i < ne; i++ {
		src := storage.VertexID(rng.Intn(nv))
		dst := storage.VertexID(rng.Intn(nv))
		addEdge(src, dst)
		if rng.Intn(6) == 0 {
			addEdge(src, dst) // forced parallel edge
		}
	}
	return g
}

// applyIncrementalOps drives a DeltaBuilder with inserts (with properties,
// including parallel edges and edges touching brand-new vertices) and
// deletes of both base and freshly inserted edges.
func applyIncrementalOps(b *DeltaBuilder, g *storage.Graph, ops int, rng *rand.Rand) {
	labels := []string{"X", "Y"}
	for i := 0; i < ops; i++ {
		if rng.Intn(4) == 0 && g.NumEdges() > 0 {
			b.Delete(storage.EdgeID(rng.Intn(g.NumEdges())))
			continue
		}
		nv := g.NumVertices()
		if rng.Intn(10) == 0 {
			v := g.AddVertex("A")
			if err := g.SetVertexProp(v, "city", storage.Str("bos")); err != nil {
				panic(err)
			}
			nv++
		}
		src := storage.VertexID(rng.Intn(nv))
		dst := storage.VertexID(rng.Intn(nv))
		n := 1 + rng.Intn(2) // sometimes a parallel pair
		for k := 0; k < n; k++ {
			e, err := g.AddEdge(src, dst, labels[rng.Intn(len(labels))])
			if err != nil {
				panic(err)
			}
			if err := g.SetEdgeProp(e, "w", storage.Int(int64(rng.Intn(50)))); err != nil {
				panic(err)
			}
			b.Insert(e)
		}
	}
}

// addIncrementalSecondaries registers one shared-level VP, one filtered VP,
// and one EP so every secondary patch path is exercised.
func addIncrementalSecondaries(t *testing.T, s *Store, primaryCfg Config) {
	t.Helper()
	if _, err := s.CreateVertexPartitioned(VPDef{
		View: View1Hop{Name: "shared"},
		Dirs: []Direction{FW, BW},
		Cfg: Config{
			Partitions: primaryCfg.Partitions,
			Sorts:      []SortKey{{Var: pred.VarNbr, Prop: "city"}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateVertexPartitioned(VPDef{
		View: View1Hop{Name: "bosOnly", Pred: pred.Predicate{}.
			And(pred.ConstTerm(pred.VarNbr, "city", pred.EQ, storage.Str("bos")))},
		Dirs: []Direction{FW},
		Cfg:  Config{Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateEdgePartitioned(EPDef{
		View: View2Hop{Name: "heavier", Dir: DestinationFW, Pred: pred.Predicate{}.
			And(pred.VarTerm(pred.VarBound, "w", pred.LT, pred.VarAdj, "w"))},
		Cfg: Config{Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}}},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCloneIncrementalMatchesFullRebuild is the fold-parity contract: for
// random deltas (inserts with properties, parallel edges, new vertices, and
// deletes) over three primary configurations, the incrementally patched
// successor store must be indistinguishable from a full rebuild — the
// checkpoint encoding is bit-identical and every primary and secondary list
// answers entry-for-entry the same.
func TestCloneIncrementalMatchesFullRebuild(t *testing.T) {
	configs := []struct {
		name string
		c    Config
	}{
		{"default", DefaultConfig()},
		{"two-level", Config{Partitions: []PartitionKey{
			{Var: pred.VarAdj, Prop: pred.PropLabel},
			{Var: pred.VarNbr, Prop: pred.PropLabel},
		}}},
		{"city-sorted", Config{
			Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}},
			Sorts:      []SortKey{{Var: pred.VarNbr, Prop: "city"}},
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				rng := rand.New(rand.NewSource(int64(100*trial) + 7))
				g := incrementalTestGraph(40, 150, rng)
				s, err := NewStore(g, cfg.c)
				if err != nil {
					t.Fatal(err)
				}
				addIncrementalSecondaries(t, s, cfg.c)

				g2 := g.Clone()
				b := NewDeltaBuilder(NewDelta(), s.Primary(), g2)
				applyIncrementalOps(b, g2, 80, rng)
				if b.Impossible() {
					t.Fatal("ops unexpectedly unbufferable")
				}
				d := b.Freeze()

				gInc := g2.Clone()
				gInc.ApplyTombstones(d.DeletedEdges())
				inc, ok := s.CloneIncremental(gInc, d)
				if !ok {
					t.Fatal("CloneIncremental declined a bufferable delta")
				}
				gFull := g2.Clone()
				gFull.ApplyTombstones(d.DeletedEdges())
				full, err := s.CloneRebuilt(gFull, cfg.c)
				if err != nil {
					t.Fatal(err)
				}
				compareStores(t, fmt.Sprintf("trial %d", trial), inc, full)
			}
		})
	}
}

// compareStores requires two stores over equal graphs to be
// indistinguishable: bit-identical checkpoint images and entry-for-entry
// equal primary and secondary lists.
func compareStores(t *testing.T, key string, inc, full *Store) {
	t.Helper()
	wi, wf := enc.NewWriter(), enc.NewWriter()
	EncodeStore(wi, inc)
	EncodeStore(wf, full)
	if !bytes.Equal(wi.Bytes(), wf.Bytes()) {
		t.Fatalf("%s: checkpoint encodings diverge (%d vs %d bytes)", key, len(wi.Bytes()), len(wf.Bytes()))
	}
	g := inc.Graph()
	for _, dir := range []Direction{FW, BW} {
		for v := 0; v < g.NumVertices(); v++ {
			compareLists(t, fmt.Sprintf("%s: primary dir=%v v=%d", key, dir, v),
				inc.Primary().List(dir, storage.VertexID(v), nil),
				full.Primary().List(dir, storage.VertexID(v), nil))
		}
	}
	for i, vp := range inc.vps {
		fvp := full.vps[i]
		for di, d := range vp.dirs {
			if d == nil {
				continue
			}
			dir := Direction(di)
			for v := 0; v < g.NumVertices(); v++ {
				compareLists(t, fmt.Sprintf("%s: vp %q dir=%v v=%d", key, vp.Name(), dir, v),
					vp.List(dir, storage.VertexID(v), nil),
					fvp.List(dir, storage.VertexID(v), nil))
			}
			if vp.SharedLevels(dir) != fvp.SharedLevels(dir) {
				t.Fatalf("%s: vp %q dir=%v shared-levels diverge", key, vp.Name(), dir)
			}
		}
		if vp.MemoryBytes() != fvp.MemoryBytes() {
			t.Fatalf("%s: vp %q memory %d vs %d", key, vp.Name(), vp.MemoryBytes(), fvp.MemoryBytes())
		}
	}
	for i, ep := range inc.eps {
		fep := full.eps[i]
		for e := 0; e < g.NumEdges(); e++ {
			if g.EdgeDeleted(storage.EdgeID(e)) {
				continue
			}
			compareLists(t, fmt.Sprintf("%s: ep %q eb=%d", key, ep.Name(), e),
				ep.List(storage.EdgeID(e), nil),
				fep.List(storage.EdgeID(e), nil))
		}
		if ep.MemoryBytes() != fep.MemoryBytes() {
			t.Fatalf("%s: ep %q memory %d vs %d", key, ep.Name(), ep.MemoryBytes(), fep.MemoryBytes())
		}
	}
}

func compareLists(t *testing.T, key string, got, want AdjList) {
	t.Helper()
	gn, ge := got.Materialize()
	wn, we := want.Materialize()
	if len(gn) != len(wn) {
		t.Fatalf("%s: len %d want %d", key, len(gn), len(wn))
	}
	for i := range gn {
		if gn[i] != wn[i] || ge[i] != we[i] {
			t.Fatalf("%s: entry %d (%d,%d) want (%d,%d)", key, i, gn[i], ge[i], wn[i], we[i])
		}
	}
}

// TestIncrementalEPPatchPathParity pins the edge-partitioned PATCH path
// specifically: on a graph large enough that a small delta passes the EP
// cost gate, the patched view must equal the full rebuild. (The randomized
// store-level test may route EP through its full-build fallback when the
// delta's fan-out trips the gate, so this test asserts the gate was NOT
// tripped before comparing.)
func TestIncrementalEPPatchPathParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := incrementalTestGraph(200, 1200, rng)
	cfg := DefaultConfig()
	s, err := NewStore(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addIncrementalSecondaries(t, s, cfg)

	g2 := g.Clone()
	b := NewDeltaBuilder(NewDelta(), s.Primary(), g2)
	applyIncrementalOps(b, g2, 6, rng)
	d := b.Freeze()

	gInc := g2.Clone()
	gInc.ApplyTombstones(d.DeletedEdges())
	np, ok := incrementalPrimary(s.primary, gInc, d, d.dirtyOwnerSets())
	if !ok {
		t.Fatal("primary patch declined")
	}
	nep, ok := incrementalEdgePartitioned(s.eps[0], np, d, d.dirtyOwnerSets())
	if !ok {
		t.Fatal("EP patch declined a small delta (cost gate misfired)")
	}
	gFull := g2.Clone()
	gFull.ApplyTombstones(d.DeletedEdges())
	full, err := s.CloneRebuilt(gFull, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < gInc.NumEdges(); e++ {
		if gInc.EdgeDeleted(storage.EdgeID(e)) {
			continue
		}
		compareLists(t, fmt.Sprintf("ep patch eb=%d", e),
			nep.List(storage.EdgeID(e), nil),
			full.eps[0].List(storage.EdgeID(e), nil))
	}
	if nep.MemoryBytes() != full.eps[0].MemoryBytes() {
		t.Fatalf("ep patch memory %d vs %d", nep.MemoryBytes(), full.eps[0].MemoryBytes())
	}
}

// TestIncrementalEPDeclinesHubFanout: one insert at a hub vertex makes
// nearly every bound edge dirty, so the EP patch's re-scan work approaches
// a full build's — the cost gate must decline, and CloneIncremental must
// still succeed by rebuilding that view from the patched primary.
func TestIncrementalEPDeclinesHubFanout(t *testing.T) {
	g := storage.NewGraph()
	g.AddVertices(300, "A")
	for i := 1; i <= 250; i++ {
		if _, err := g.AddEdge(0, storage.VertexID(i), "X"); err != nil {
			t.Fatal(err)
		}
		mustSet(t, g.SetEdgeProp(storage.EdgeID(g.NumEdges()-1), "w", storage.Int(int64(i%50))))
	}
	for i := 1; i <= 40; i++ {
		if _, err := g.AddEdge(storage.VertexID(i), 0, "X"); err != nil {
			t.Fatal(err)
		}
		mustSet(t, g.SetEdgeProp(storage.EdgeID(g.NumEdges()-1), "w", storage.Int(int64(i%50))))
	}
	cfg := DefaultConfig()
	s, err := NewStore(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateEdgePartitioned(EPDef{
		View: View2Hop{Name: "hub", Dir: DestinationFW, Pred: pred.Predicate{}.
			And(pred.VarTerm(pred.VarBound, "w", pred.LT, pred.VarAdj, "w"))},
		Cfg: Config{Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}}},
	}); err != nil {
		t.Fatal(err)
	}

	g2 := g.Clone()
	b := NewDeltaBuilder(NewDelta(), s.Primary(), g2)
	e, err := g2.AddEdge(0, 7, "X") // dirties the hub's forward list
	if err != nil {
		t.Fatal(err)
	}
	mustSet(t, g2.SetEdgeProp(e, "w", storage.Int(3)))
	b.Insert(e)
	d := b.Freeze()

	gInc := g2.Clone()
	np, ok := incrementalPrimary(s.primary, gInc, d, d.dirtyOwnerSets())
	if !ok {
		t.Fatal("primary patch declined")
	}
	if _, ok := incrementalEdgePartitioned(s.eps[0], np, d, d.dirtyOwnerSets()); ok {
		t.Fatal("EP patch accepted hub fan-out the cost gate should decline")
	}
	inc, ok := s.CloneIncremental(gInc, d)
	if !ok {
		t.Fatal("CloneIncremental failed despite EP fallback")
	}
	full, err := s.CloneRebuilt(g2.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareStores(t, "hub", inc, full)
}

func mustSet(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloneIncrementalDeclinesNewBucketSpace pins the fallback contract:
// when the new graph's categorical space for a partition level grew (here,
// an impossible delta is not even constructed — we simulate by handing a
// graph whose catalog gained an edge label used by an indexed edge), the
// incremental path must decline rather than produce a wrong bucket space.
func TestCloneIncrementalDeclinesNewBucketSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := incrementalTestGraph(10, 30, rng)
	s, err := NewStore(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Mutate a clone outside the delta discipline: a new edge label grows
	// the label categorical's cardinality.
	g2 := g.Clone()
	if _, err := g2.AddEdge(0, 1, "Z"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.CloneIncremental(g2, NewDelta()); ok {
		t.Fatal("CloneIncremental accepted a grown bucket space")
	}
}
