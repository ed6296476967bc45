package index

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// EPDirection is one of the four ways a 2-hop view can be partitioned by an
// edge (Section III-B2). eb is the bound edge; the list of eb stores
// adjacent edges eadj of one endpoint of eb.
type EPDirection uint8

const (
	// DestinationFW: vs -[eb]-> vd -[eadj]-> vnbr.
	DestinationFW EPDirection = iota
	// DestinationBW: vs -[eb]-> vd <-[eadj]- vnbr.
	DestinationBW
	// SourceFW: vnbr -[eadj]-> vs -[eb]-> vd.
	SourceFW
	// SourceBW: vnbr <-[eadj]- vs -[eb]-> vd.
	SourceBW
)

// String implements fmt.Stringer.
func (d EPDirection) String() string {
	switch d {
	case DestinationFW:
		return "Destination-FW"
	case DestinationBW:
		return "Destination-BW"
	case SourceFW:
		return "Source-FW"
	default:
		return "Source-BW"
	}
}

// BoundIsDst reports whether the adjacency hangs off the bound edge's
// destination vertex.
func (d EPDirection) BoundIsDst() bool { return d == DestinationFW || d == DestinationBW }

// AdjDirection returns which primary direction holds the adjacent edges:
// e.g. Destination-FW lists are subsets of the destination vertex's forward
// primary list; Source-FW edges point *into* the source vertex, so they
// live in its backward list.
func (d EPDirection) AdjDirection() Direction {
	switch d {
	case DestinationFW, SourceBW:
		return FW
	default:
		return BW
	}
}

// View2Hop is a 2-hop materialized view: pairs of adjacent edges (eb, eadj)
// satisfying a predicate that must reference both edges — otherwise the
// index stores redundant duplicate lists and a vertex-partitioned index
// should be used instead (Section III-B2).
type View2Hop struct {
	Name string
	Dir  EPDirection
	Pred pred.Predicate
}

// EPDef declares a secondary edge-partitioned A+ index.
type EPDef struct {
	View View2Hop
	Cfg  Config
}

// EdgePartitioned is a secondary edge-partitioned A+ index: one offset list
// per bound edge, resolving into the primary list of the bound edge's
// owner vertex.
type EdgePartitioned struct {
	def     EPDef
	primary *Primary
	levels  []level
	lists   *csr.OffsetLists
}

// BuildEdgePartitioned materializes the 2-hop view and builds its offset
// lists. Construction is parallelized across bound edges (the paper builds
// edge-partitioned indexes with 16 threads).
func BuildEdgePartitioned(p *Primary, def EPDef) (*EdgePartitioned, error) {
	if err := def.Cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validate2HopPred(def.View.Pred); err != nil {
		return nil, fmt.Errorf("index: 2-hop view %q: %w", def.View.Name, err)
	}
	ep := &EdgePartitioned{def: def, primary: p}
	if err := ep.build(); err != nil {
		return nil, err
	}
	return ep, nil
}

// validate2HopPred enforces the paper's requirement that the predicate
// accesses properties of both edges in the 2-path.
func validate2HopPred(q pred.Predicate) error {
	usesBound := false
	for _, t := range q.Terms {
		if t.UsesBound() {
			usesBound = true
		}
	}
	if !usesBound {
		return fmt.Errorf("predicate must reference eb; a vertex-partitioned index gives the same access path without duplicate lists")
	}
	return nil
}

func (ep *EdgePartitioned) build() error {
	p := ep.primary
	g := p.g
	levels, err := buildLevels(g, ep.def.Cfg.Partitions)
	if err != nil {
		return err
	}
	ep.levels = levels

	adjDir := ep.def.View.Dir.AdjDirection()
	// Compiled once against g's columns; the workers share it read-only.
	cp := pred.Compile(ep.def.View.Pred.ResolveNbr(adjDir == FW), g)
	var sorts boundSorts
	sorts.bind(g, ep.def.Cfg.Sorts)
	numEdges := g.NumEdges()
	c := p.dirCSR(adjDir)
	nbrs, eids := c.Nbrs(), c.EIDs()

	// codes holds each entry's bucket codes back to back, len(levels) per
	// entry, so accepting an entry allocates nothing of its own.
	type shardResult struct {
		entries []csr.OffsetEntry
		codes   []uint16
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > numEdges {
		workers = 1
	}
	results := make([]shardResult, workers)
	var wg sync.WaitGroup
	chunk := (numEdges + workers - 1) / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res shardResult
			var codeBuf []uint16
			lo, hi := w*chunk, (w+1)*chunk
			if hi > numEdges {
				hi = numEdges
			}
			for i := lo; i < hi; i++ {
				eb := storage.EdgeID(i)
				if g.EdgeDeleted(eb) {
					continue
				}
				owner := ep.ownerVertex(eb)
				rlo, rhi := c.OwnerRange(uint32(owner))
				for pos := rlo; pos < rhi; pos++ {
					eadj := storage.EdgeID(eids[pos])
					nbr := storage.VertexID(nbrs[pos])
					if !cp.Eval(eadj, eb, true) {
						continue
					}
					codeBuf = codesFor(levels, eadj, nbr, codeBuf)
					res.entries = append(res.entries, csr.OffsetEntry{
						Owner:  uint32(eb),
						Offset: pos - rlo,
						Sort:   sorts.ordinals(eadj, nbr),
					})
					res.codes = append(res.codes, codeBuf...)
				}
			}
			results[w] = res
		}(w)
	}
	wg.Wait()

	builder := csr.NewOffsetBuilder(numEdges, levelCards(levels))
	stride := len(levels)
	for _, res := range results {
		for i, e := range res.entries {
			builder.Add(e, res.codes[i*stride:(i+1)*stride])
		}
	}
	ep.lists = builder.Build(func(owner uint32) uint32 {
		eb := storage.EdgeID(owner)
		if g.EdgeDeleted(eb) {
			return 0
		}
		return p.OwnerLen(adjDir, ep.ownerVertex(eb))
	})
	return nil
}

// ownerVertex returns the vertex whose primary list the bound edge's
// adjacency is a subset of.
func (ep *EdgePartitioned) ownerVertex(eb storage.EdgeID) storage.VertexID {
	if ep.def.View.Dir.BoundIsDst() {
		return ep.primary.g.Dst(eb)
	}
	return ep.primary.g.Src(eb)
}

// Name returns the view name.
func (ep *EdgePartitioned) Name() string { return ep.def.View.Name }

// Def returns the index definition.
func (ep *EdgePartitioned) Def() EPDef { return ep.def }

// EPDir returns the partitioning direction of the view.
func (ep *EdgePartitioned) EPDir() EPDirection { return ep.def.View.Dir }

// Pred returns the view predicate (with vnbr unresolved).
func (ep *EdgePartitioned) Pred() pred.Predicate { return ep.def.View.Pred }

// ResolvedPred returns the view predicate with vnbr bound to the adjacency
// direction.
func (ep *EdgePartitioned) ResolvedPred() pred.Predicate {
	return ep.def.View.Pred.ResolveNbr(ep.def.View.Dir.AdjDirection() == FW)
}

// Config returns the index configuration.
func (ep *EdgePartitioned) Config() Config { return ep.def.Cfg }

// EffectiveSorts returns the complete ordering of the innermost lists.
func (ep *EdgePartitioned) EffectiveSorts() []SortKey {
	return append(append([]SortKey(nil), ep.def.Cfg.Sorts...), NbrIDSort)
}

// LevelCards returns the cardinality of each partitioning level.
func (ep *EdgePartitioned) LevelCards() []int { return levelCards(ep.levels) }

// ResolveCodes maps partition values to bucket codes.
func (ep *EdgePartitioned) ResolveCodes(vals []storage.Value) ([]uint16, bool) {
	if len(vals) > len(ep.levels) {
		panic("index: more partition values than levels")
	}
	codes := make([]uint16, len(vals))
	for i, val := range vals {
		b, ok := ep.levels[i].cat.BucketOf(val)
		if !ok {
			return nil, false
		}
		codes[i] = b
	}
	return codes, true
}

// ListInto points dst at the adjacency list bound to eb, restricted to a
// bucket-code prefix.
func (ep *EdgePartitioned) ListInto(eb storage.EdgeID, codes []uint16, dst *AdjList) {
	baseNbrs, baseEids := ep.primary.ownerSlices(ep.def.View.Dir.AdjDirection(), ep.ownerVertex(eb))
	dst.setOffset(ep.lists.BucketList(uint32(eb), codes), baseNbrs, baseEids)
}

// List is ListInto returning the list by value, for cold callers.
func (ep *EdgePartitioned) List(eb storage.EdgeID, codes []uint16) (l AdjList) {
	ep.ListInto(eb, codes, &l)
	return l
}

// NumIndexedEdges returns the number of stored (bound edge, adjacent edge)
// pairs — the |E_indexed| column of Table IV.
func (ep *EdgePartitioned) NumIndexedEdges() int64 { return int64(ep.lists.Len()) }

// MemoryBytes estimates the index footprint.
func (ep *EdgePartitioned) MemoryBytes() int64 { return ep.lists.MemoryBytes() }
