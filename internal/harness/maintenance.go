package harness

import (
	"fmt"
	"time"

	"github.com/aplusdb/aplus/internal/gen"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/snap"
	"github.com/aplusdb/aplus/internal/storage"
)

// Maintenance reproduces the Section V-F micro-benchmark: load 50% of a
// dataset, then insert the remaining edges one at a time through the path
// DB.AddEdge runs (a singleton snapshot commit into the delta overlay,
// folded into a fresh base every snap.DefaultMergeThreshold pending ops),
// under five configurations of increasing maintenance work: Ds (no
// partitioning, neighbour-sorted), Dp (label-partitioned), Dps
// (label-partitioned + sorted), Dps+VPt, and Dps+EPt (banded time
// predicate at ~1% selectivity). The clock stops after a final fold, so
// every timed insert has reached the indexes; the folded store must then
// equal a from-scratch rebuild or the run panics.
func Maintenance(o Options) []Row {
	w := o.out()
	header(w, "Maintenance: insert throughput (Section V-F)")
	var rows []Row
	for _, cfg := range []struct {
		base   gen.Config
		vl, el int
	}{
		{gen.LiveJournal, 2, 4},
		{gen.BerkStan, 2, 2},
	} {
		c := scaled(cfg.base.WithLabels(cfg.vl, cfg.el), o.scale())
		c.Time = true
		full := gen.Build(c)
		name := cfg.base.Name + dsSuffix(cfg.vl, cfg.el)

		for _, mc := range maintenanceConfigs() {
			s, pending := halfLoadedStore(full, mc.primary)
			for _, create := range mc.secondaries {
				create(s)
			}
			m := snap.NewManagerFromStore(s, s.Graph(), snap.Options{})
			start := time.Now()
			for _, e := range pending {
				if err := m.CommitSingle(func(b *snap.Batch) error {
					_, err := b.AddEdge(e.src, e.dst, e.label, e.props)
					return err
				}); err != nil {
					panic(err)
				}
			}
			if err := m.Merge(); err != nil {
				panic(err)
			}
			secs := time.Since(start).Seconds()
			verifyFolded(m, name, mc.name)
			m.Close()
			rate := float64(len(pending)) / secs
			fmt.Fprintf(w, "%-8s %-9s %8d inserts in %8.3fs  -> %10.0f edges/s\n",
				name, mc.name, len(pending), secs, rate)
			rows = append(rows, Row{
				Table: "maintenance", Dataset: name, Config: mc.name,
				Seconds: secs, Count: int64(len(pending)),
			})
		}
	}
	return rows
}

// verifyFolded panics unless the manager's folded base store equals a
// from-scratch rebuild over the same graph: equal footprint and indexed
// edge counts, and every primary list equal element for element.
func verifyFolded(m *snap.Manager, dataset, config string) {
	sn := m.Acquire()
	defer sn.Release()
	if !sn.Delta().Empty() {
		panic(fmt.Sprintf("maintenance %s %s: %d ops still pending after the final fold", dataset, config, sn.Delta().Pending()))
	}
	got := sn.Store()
	want, err := got.CloneRebuilt(got.Graph(), got.Primary().Config())
	if err != nil {
		panic(err)
	}
	if gs, ws := got.Stats(), want.Stats(); gs != ws {
		panic(fmt.Sprintf("maintenance %s %s: folded store stats %+v, rebuild %+v", dataset, config, gs, ws))
	}
	for v := 0; v < got.Graph().NumVertices(); v++ {
		for _, dir := range []index.Direction{index.FW, index.BW} {
			gl := got.Primary().List(dir, storage.VertexID(v), nil)
			wl := want.Primary().List(dir, storage.VertexID(v), nil)
			if gl.Len() != wl.Len() {
				panic(fmt.Sprintf("maintenance %s %s: %v list of %d has %d entries, rebuild %d", dataset, config, dir, v, gl.Len(), wl.Len()))
			}
			for i := 0; i < gl.Len(); i++ {
				gn, ge := gl.Get(i)
				wn, we := wl.Get(i)
				if gn != wn || ge != we {
					panic(fmt.Sprintf("maintenance %s %s: %v list of %d differs at %d: (%d,%d) vs rebuild (%d,%d)", dataset, config, dir, v, i, gn, ge, wn, we))
				}
			}
		}
	}
}

type pendingEdge struct {
	src, dst storage.VertexID
	label    string
	props    map[string]storage.Value
}

// halfLoadedStore builds a graph with all vertices and the first half of
// full's edges, returning the store and the edges still to insert.
func halfLoadedStore(full *storage.Graph, cfg index.Config) (*index.Store, []pendingEdge) {
	g := storage.NewGraph()
	for i := 0; i < full.NumVertices(); i++ {
		g.AddVertex(full.Catalog().VertexLabelName(full.VertexLabel(storage.VertexID(i))))
	}
	half := full.NumEdges() / 2
	edgeProps := func(e storage.EdgeID) map[string]storage.Value {
		props := map[string]storage.Value{}
		if v := full.EdgeProp(e, "time"); !v.IsNull() {
			props["time"] = v
		}
		return props
	}
	for i := 0; i < half; i++ {
		e := storage.EdgeID(i)
		ne, err := g.AddEdge(full.Src(e), full.Dst(e), full.Catalog().EdgeLabelName(full.EdgeLabel(e)))
		if err != nil {
			panic(err)
		}
		for k, v := range edgeProps(e) {
			if err := g.SetEdgeProp(ne, k, v); err != nil {
				panic(err)
			}
		}
	}
	var pending []pendingEdge
	for i := half; i < full.NumEdges(); i++ {
		e := storage.EdgeID(i)
		pending = append(pending, pendingEdge{
			src: full.Src(e), dst: full.Dst(e),
			label: full.Catalog().EdgeLabelName(full.EdgeLabel(e)),
			props: edgeProps(e),
		})
	}
	return buildStore(g, cfg), pending
}

type maintenanceConfig struct {
	name        string
	primary     index.Config
	secondaries []func(*index.Store)
}

func maintenanceConfigs() []maintenanceConfig {
	noPart := index.Config{}
	dp := index.Config{
		Partitions: index.DefaultConfig().Partitions,
		Sorts:      []index.SortKey{{Var: pred.VarAdj, Prop: pred.PropID}},
	}
	dps := index.DefaultConfig()
	vpt := func(s *index.Store) {
		if _, err := s.CreateVertexPartitioned(VPtDef()); err != nil {
			panic(err)
		}
	}
	ept := func(s *index.Store) {
		if _, err := s.CreateEdgePartitioned(EPtDef(10_000)); err != nil { // ~1% of the 1e6 time range
			panic(err)
		}
	}
	return []maintenanceConfig{
		{"Ds", noPart, nil},
		{"Dp", dp, nil},
		{"Dps", dps, nil},
		{"Dps+VPt", dps, []func(*index.Store){vpt}},
		{"Dps+EPt", dps, []func(*index.Store){vpt, ept}},
	}
}
