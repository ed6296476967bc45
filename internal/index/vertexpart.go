package index

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// View1Hop is a 1-hop materialized view: the subset of edges satisfying an
// arbitrary selection predicate over the adjacent edge and its endpoints
// (Section III-B1). No other operators are allowed, so outputs are always a
// subset of the edge table — the property offset lists rely on.
type View1Hop struct {
	Name string
	Pred pred.Predicate
}

// VPDef declares a secondary vertex-partitioned A+ index: the view, the
// directions to index (the paper's FW / BW / FW-BW options), and the nested
// partitioning + sorting configuration.
type VPDef struct {
	View View1Hop
	Dirs []Direction
	Cfg  Config
}

// VertexPartitioned is a secondary vertex-partitioned A+ index storing a
// 1-hop view in offset lists.
type VertexPartitioned struct {
	def     VPDef
	primary *Primary
	// dirs is indexed by Direction; a direction that was not indexed is nil.
	dirs [2]*vpDir
}

type vpDir struct {
	lists  *csr.OffsetLists
	levels []level // nil when sharing the primary's levels
	shared bool
}

// BuildVertexPartitioned materializes the view and builds offset lists for
// each requested direction. When the view has no predicate and the config's
// partitioning matches the primary's, the partition levels of the primary
// are shared and cost no memory (Section III-B3).
func BuildVertexPartitioned(p *Primary, def VPDef) (*VertexPartitioned, error) {
	if err := def.Cfg.Validate(); err != nil {
		return nil, err
	}
	if len(def.Dirs) == 0 {
		return nil, fmt.Errorf("index: view %q: at least one direction required", def.View.Name)
	}
	for _, t := range def.View.Pred.Terms {
		if t.UsesBound() {
			return nil, fmt.Errorf("index: 1-hop view %q cannot reference eb", def.View.Name)
		}
	}
	v := &VertexPartitioned{def: def, primary: p}
	for _, dir := range def.Dirs {
		d, err := v.buildDir(dir)
		if err != nil {
			return nil, err
		}
		v.dirs[dir] = d
	}
	return v, nil
}

func (v *VertexPartitioned) buildDir(dir Direction) (*vpDir, error) {
	p := v.primary
	g := p.g
	shared := v.def.View.Pred.IsTrue() && v.def.Cfg.SameStructure(p.cfg)
	d := &vpDir{shared: shared}

	var builder *csr.OffsetBuilder
	var levels []level
	var err error
	if shared {
		builder = csr.NewSharedOffsetBuilder(p.dirCSR(dir))
		levels = p.levels
	} else {
		levels, err = buildLevels(g, v.def.Cfg.Partitions)
		if err != nil {
			return nil, err
		}
		d.levels = levels
		builder = csr.NewOffsetBuilder(g.NumVertices(), levelCards(levels))
	}

	cp := pred.Compile(v.def.View.Pred.ResolveNbr(dir == FW), g)
	var sorts boundSorts
	sorts.bind(g, v.def.Cfg.Sorts)
	c := p.dirCSR(dir)
	nbrs, eids := c.Nbrs(), c.EIDs()
	var codeBuf []uint16
	for owner := uint32(0); owner < uint32(g.NumVertices()); owner++ {
		lo, hi := c.OwnerRange(owner)
		for pos := lo; pos < hi; pos++ {
			e := storage.EdgeID(eids[pos])
			nbr := storage.VertexID(nbrs[pos])
			if !cp.Eval(e, 0, false) {
				continue
			}
			codeBuf = codesFor(levels, e, nbr, codeBuf)
			builder.Add(csr.OffsetEntry{
				Owner:  owner,
				Offset: pos - lo,
				Sort:   sorts.ordinals(e, nbr),
			}, codeBuf)
		}
	}
	d.lists = builder.Build(func(owner uint32) uint32 {
		return p.OwnerLen(dir, storage.VertexID(owner))
	})
	return d, nil
}

// Name returns the view name.
func (v *VertexPartitioned) Name() string { return v.def.View.Name }

// Def returns the index definition.
func (v *VertexPartitioned) Def() VPDef { return v.def }

// HasDirection reports whether dir was indexed.
func (v *VertexPartitioned) HasDirection(dir Direction) bool {
	return v.dirs[dir] != nil
}

// SharedLevels reports whether dir shares the primary's partition levels.
func (v *VertexPartitioned) SharedLevels(dir Direction) bool {
	d := v.dirs[dir]
	return d != nil && d.shared
}

// LevelCards returns the cardinality of each partitioning level of dir.
func (v *VertexPartitioned) LevelCards(dir Direction) []int {
	d := v.dirs[dir]
	if d.shared {
		return levelCards(v.primary.levels)
	}
	return levelCards(d.levels)
}

// ResolveCodes maps partition values to bucket codes for this index.
func (v *VertexPartitioned) ResolveCodes(dir Direction, vals []storage.Value) ([]uint16, bool) {
	d := v.dirs[dir]
	levels := d.levels
	if d.shared {
		levels = v.primary.levels
	}
	if len(vals) > len(levels) {
		panic("index: more partition values than levels")
	}
	codes := make([]uint16, len(vals))
	for i, val := range vals {
		b, ok := levels[i].cat.BucketOf(val)
		if !ok {
			return nil, false
		}
		codes[i] = b
	}
	return codes, true
}

// ListInto points dst at the view's adjacency list of owner under dir
// restricted to a bucket-code prefix.
func (v *VertexPartitioned) ListInto(dir Direction, owner storage.VertexID, codes []uint16, dst *AdjList) {
	baseNbrs, baseEids := v.primary.ownerSlices(dir, owner)
	dst.setOffset(v.dirs[dir].lists.BucketList(uint32(owner), codes), baseNbrs, baseEids)
}

// List is ListInto returning the list by value, for cold callers.
func (v *VertexPartitioned) List(dir Direction, owner storage.VertexID, codes []uint16) (l AdjList) {
	v.ListInto(dir, owner, codes, &l)
	return l
}

// Pred returns the view predicate (with vnbr unresolved).
func (v *VertexPartitioned) Pred() pred.Predicate { return v.def.View.Pred }

// ResolvedPred returns the view predicate with vnbr bound to dir.
func (v *VertexPartitioned) ResolvedPred(dir Direction) pred.Predicate {
	return v.def.View.Pred.ResolveNbr(dir == FW)
}

// Config returns the index configuration.
func (v *VertexPartitioned) Config() Config { return v.def.Cfg }

// EffectiveSorts returns the complete ordering of the innermost lists.
func (v *VertexPartitioned) EffectiveSorts() []SortKey {
	return append(append([]SortKey(nil), v.def.Cfg.Sorts...), NbrIDSort)
}

// rebuild reconstructs the offset lists after the primary was rebuilt.
func (v *VertexPartitioned) rebuild() error {
	for dir, od := range v.dirs {
		if od == nil {
			continue
		}
		d, err := v.buildDir(Direction(dir))
		if err != nil {
			return err
		}
		v.dirs[dir] = d
	}
	return nil
}

// NumIndexedEdges returns the total number of stored (direction, edge)
// entries.
func (v *VertexPartitioned) NumIndexedEdges() int64 {
	var n int64
	for _, d := range v.dirs {
		if d != nil {
			n += int64(d.lists.Len())
		}
	}
	return n
}

// MemoryBytes estimates the footprint of the index (shared partition levels
// cost nothing).
func (v *VertexPartitioned) MemoryBytes() int64 {
	var b int64
	for _, d := range v.dirs {
		if d != nil {
			b += d.lists.MemoryBytes()
		}
	}
	return b
}
