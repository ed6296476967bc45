package index

import (
	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/storage"
)

// Primary is the pair of forward and backward primary A+ indexes. It is
// required to contain every live edge of the graph (Section III-A) and is
// the base that secondary offset lists resolve into. Its nested
// partitioning and sorting are reconfigurable at runtime.
type Primary struct {
	g      *storage.Graph
	cfg    Config
	levels []level
	fw, bw *csr.CSR

	// edgeBound is the graph's edge-slot count when the CSRs were built;
	// edges at or past it live only in snapshot delta overlays until the
	// next merge.
	edgeBound storage.EdgeID
}

// BuildPrimary constructs the primary indexes over every live edge of g
// under the given configuration.
func BuildPrimary(g *storage.Graph, cfg Config) (*Primary, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	levels, err := buildLevels(g, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	p := &Primary{
		g:         g,
		cfg:       cfg,
		levels:    levels,
		edgeBound: storage.EdgeID(g.NumEdges()),
	}
	cards := levelCards(levels)
	fb := csr.NewBuilder(g.NumVertices(), cards)
	bb := csr.NewBuilder(g.NumVertices(), cards)
	fb.Reserve(g.NumLiveEdges())
	bb.Reserve(g.NumLiveEdges())
	var buf []uint16
	for i := 0; i < g.NumEdges(); i++ {
		e := storage.EdgeID(i)
		if g.EdgeDeleted(e) {
			continue
		}
		src, dst := g.Src(e), g.Dst(e)
		buf = codesFor(levels, e, dst, buf)
		fb.Add(csr.Entry{
			Owner: uint32(src), Nbr: uint32(dst), EID: uint64(e),
			Sort: sortOrdinals(g, cfg.Sorts, e, dst),
		}, buf)
		buf = codesFor(levels, e, src, buf)
		bb.Add(csr.Entry{
			Owner: uint32(dst), Nbr: uint32(src), EID: uint64(e),
			Sort: sortOrdinals(g, cfg.Sorts, e, src),
		}, buf)
	}
	p.fw = fb.Build()
	p.bw = bb.Build()
	return p, nil
}

// Graph returns the underlying graph.
func (p *Primary) Graph() *storage.Graph { return p.g }

// Config returns the active configuration.
func (p *Primary) Config() Config { return p.cfg }

// NumLevels returns the number of nested partitioning levels.
func (p *Primary) NumLevels() int { return len(p.levels) }

// LevelCards returns the cardinality of each partitioning level (used by
// the optimizer to expand bucket choices for sorted access).
func (p *Primary) LevelCards() []int { return levelCards(p.levels) }

func (p *Primary) dirCSR(dir Direction) *csr.CSR {
	if dir == FW {
		return p.fw
	}
	return p.bw
}

// ResolveCodes maps a prefix of partition-key values to bucket codes. It
// returns ok=false when some value can never occur, meaning the matching
// list is provably empty.
func (p *Primary) ResolveCodes(vals []storage.Value) ([]uint16, bool) {
	if len(vals) > len(p.levels) {
		panic("index: more partition values than levels")
	}
	codes := make([]uint16, len(vals))
	for i, v := range vals {
		b, ok := p.levels[i].cat.BucketOf(v)
		if !ok {
			return nil, false
		}
		codes[i] = b
	}
	return codes, true
}

// EdgeBound returns the graph's edge-slot count when the CSRs were built;
// edges at or past it are absent from the base and live in delta overlays.
func (p *Primary) EdgeBound() storage.EdgeID { return p.edgeBound }

// ListInto points dst at the adjacency list of v under dir, restricted to
// the bucket prefix codes (possibly empty = the whole neighbourhood).
// Vertices added after the build (snapshot deltas) have an empty list.
func (p *Primary) ListInto(dir Direction, v storage.VertexID, codes []uint16, dst *AdjList) {
	c := p.dirCSR(dir)
	if int(v) >= c.NumOwners() {
		dst.setDirect(nil, nil)
		return
	}
	lo, hi := c.PrefixRange(uint32(v), codes)
	dst.setDirect(c.Nbrs()[lo:hi], c.EIDs()[lo:hi])
}

// List is ListInto returning the list by value, for cold callers.
func (p *Primary) List(dir Direction, v storage.VertexID, codes []uint16) (l AdjList) {
	p.ListInto(dir, v, codes, &l)
	return l
}

// ownerSlices returns the raw owner-range arrays for offset resolution.
func (p *Primary) ownerSlices(dir Direction, v storage.VertexID) ([]uint32, []uint64) {
	c := p.dirCSR(dir)
	if int(v) >= c.NumOwners() {
		return nil, nil
	}
	lo, hi := c.OwnerRange(uint32(v))
	return c.Nbrs()[lo:hi], c.EIDs()[lo:hi]
}

// OwnerLen returns the number of entries in v's full list under dir (the
// sizing basis for offset widths).
func (p *Primary) OwnerLen(dir Direction, v storage.VertexID) uint32 {
	c := p.dirCSR(dir)
	if int(v) >= c.NumOwners() {
		return 0
	}
	lo, hi := c.OwnerRange(uint32(v))
	return hi - lo
}

// MemoryBytes reports (partition levels, ID lists) bytes across both
// directions.
func (p *Primary) MemoryBytes() (levels, idLists int64) {
	fl, fi := p.fw.MemoryBytes()
	bl, bi := p.bw.MemoryBytes()
	return fl + bl, fi + bi
}

// PartitionKeys returns the configured partition keys.
func (p *Primary) PartitionKeys() []PartitionKey { return p.cfg.Partitions }

// SortKeys returns the configured sort keys (nil means neighbour-ID order).
func (p *Primary) SortKeys() []SortKey { return p.cfg.Sorts }

// EffectiveSorts returns the sort keys with the implicit neighbour-ID
// tiebreak appended, which is the complete ordering of the innermost lists.
func (p *Primary) EffectiveSorts() []SortKey {
	return append(append([]SortKey(nil), p.cfg.Sorts...), NbrIDSort)
}
