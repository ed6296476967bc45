// Package index implements the A+ index subsystem, the paper's primary
// contribution: reconfigurable primary indexes (Section III-A), secondary
// vertex-partitioned indexes over 1-hop views (Section III-B1), secondary
// edge-partitioned indexes over 2-hop views (Section III-B2), offset-list
// storage (Section III-B3), the INDEX STORE consulted by the optimizer
// (Section IV-A), and maintenance through snapshot delta overlays folded
// incrementally into successor stores (Section IV-C).
package index

import (
	"fmt"
	"strings"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

// Direction selects the forward or backward variant of a vertex-partitioned
// index: forward lists are owned by the edge's source, backward lists by its
// destination.
type Direction uint8

const (
	// FW is the forward direction (owner = source vertex).
	FW Direction = iota
	// BW is the backward direction (owner = destination vertex).
	BW
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == FW {
		return "FW"
	}
	return "BW"
}

// PartitionKey is one nested partitioning criterion: a categorical property
// (or label) of the adjacent edge or the neighbour vertex.
type PartitionKey struct {
	Var  pred.Var // VarAdj or VarNbr
	Prop string   // pred.PropLabel or a categorical property name
}

// String implements fmt.Stringer.
func (k PartitionKey) String() string { return k.Var.String() + "." + k.Prop }

// SortKey is one sorting criterion applied to the innermost lists, ahead of
// the implicit (neighbour ID, edge ID) tiebreak.
type SortKey struct {
	Var  pred.Var // VarAdj or VarNbr
	Prop string
}

// String implements fmt.Stringer.
func (k SortKey) String() string { return k.Var.String() + "." + k.Prop }

// NbrIDSort is the default sort criterion of primary A+ indexes.
var NbrIDSort = SortKey{Var: pred.VarNbr, Prop: pred.PropID}

// Config is the tunable part of an A+ index: the nested partitioning levels
// after the owner level, and the sort criteria of the innermost lists.
type Config struct {
	Partitions []PartitionKey
	Sorts      []SortKey
}

// DefaultConfig is GraphflowDB's default: partition by edge label, sort by
// neighbour ID (Section III-A: "by default we adopt a second level
// partitioning by edge labels and sort the most granular lists according to
// the IDs of the neighbours").
func DefaultConfig() Config {
	return Config{
		Partitions: []PartitionKey{{Var: pred.VarAdj, Prop: pred.PropLabel}},
		Sorts:      nil,
	}
}

// SortSignature canonically names the effective ordering of the innermost
// lists. Two lists can be intersected only if their signatures match
// (Section IV-A: the optimizer "checks that the sorting criterion on the
// indices that are returned are the same").
func (c Config) SortSignature() string {
	if len(c.Sorts) == 0 {
		return NbrIDSort.String()
	}
	parts := make([]string, len(c.Sorts))
	for i, s := range c.Sorts {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

// SameStructure reports whether two configs have identical partitioning
// levels — the precondition for a secondary index to share the primary's
// partition levels.
func (c Config) SameStructure(o Config) bool {
	if len(c.Partitions) != len(o.Partitions) {
		return false
	}
	for i := range c.Partitions {
		if c.Partitions[i] != o.Partitions[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer.
func (c Config) String() string {
	parts := make([]string, len(c.Partitions))
	for i, p := range c.Partitions {
		parts[i] = p.String()
	}
	return fmt.Sprintf("partition[%s] sort[%s]", strings.Join(parts, ","), c.SortSignature())
}

// Validate checks that the config is expressible: partition keys must be
// labels or categorical properties of eadj/vnbr, and at most csr.MaxSortKeys
// sort criteria are supported.
func (c Config) Validate() error {
	for _, p := range c.Partitions {
		if p.Var != pred.VarAdj && p.Var != pred.VarNbr {
			return fmt.Errorf("index: partition key %v must reference eadj or vnbr", p)
		}
		if p.Prop == pred.PropID {
			return fmt.Errorf("index: cannot partition on IDs (vertex IDs are the owner level)")
		}
	}
	if len(c.Sorts) > 2 {
		return fmt.Errorf("index: at most 2 sort criteria are supported, got %d", len(c.Sorts))
	}
	for _, s := range c.Sorts {
		if s.Var != pred.VarAdj && s.Var != pred.VarNbr {
			return fmt.Errorf("index: sort key %v must reference eadj or vnbr", s)
		}
	}
	return nil
}

// level pairs a partition key with the categorical encoding backing it.
type level struct {
	key PartitionKey
	cat *storage.Categorical
}

// buildLevels resolves the categorical encodings for each partition key.
func buildLevels(g *storage.Graph, keys []PartitionKey) ([]level, error) {
	levels := make([]level, len(keys))
	for i, k := range keys {
		var cat *storage.Categorical
		var err error
		switch {
		case k.Var == pred.VarAdj && k.Prop == pred.PropLabel:
			cat = g.EdgeLabelCategorical()
		case k.Var == pred.VarAdj:
			cat, err = g.EdgePropCategorical(k.Prop)
		case k.Var == pred.VarNbr && k.Prop == pred.PropLabel:
			cat = g.VertexLabelCategorical()
		case k.Var == pred.VarNbr:
			cat, err = g.VertexPropCategorical(k.Prop)
		default:
			err = fmt.Errorf("index: unsupported partition key %v", k)
		}
		if err != nil {
			return nil, err
		}
		levels[i] = level{key: k, cat: cat}
	}
	return levels, nil
}

func levelCards(levels []level) []int {
	cards := make([]int, len(levels))
	for i, l := range levels {
		cards[i] = l.cat.Cardinality
	}
	return cards
}

// codesFor computes the bucket codes of one adjacency entry (edge e with
// neighbour nbr) at every level.
func codesFor(levels []level, e storage.EdgeID, nbr storage.VertexID, buf []uint16) []uint16 {
	buf = buf[:0]
	for _, l := range levels {
		if l.key.Var == pred.VarAdj {
			buf = append(buf, l.cat.Codes[e])
		} else {
			buf = append(buf, l.cat.Codes[nbr])
		}
	}
	return buf
}

// valueOf reads the level's partitioning value for an adjacency entry
// directly from the graph (used for edges inserted after the categorical
// encoding was built).
func (l level) valueOf(g *storage.Graph, e storage.EdgeID, nbr storage.VertexID) storage.Value {
	switch {
	case l.key.Var == pred.VarAdj && l.key.Prop == pred.PropLabel:
		return storage.Str(g.Catalog().EdgeLabelName(g.EdgeLabel(e)))
	case l.key.Var == pred.VarAdj:
		return g.EdgeProp(e, l.key.Prop)
	case l.key.Prop == pred.PropLabel:
		return storage.Str(g.Catalog().VertexLabelName(g.VertexLabel(nbr)))
	default:
		return g.VertexProp(nbr, l.key.Prop)
	}
}

// codesForInsert computes bucket codes for a freshly inserted edge, falling
// back to value lookup when the edge or vertex postdates the categorical
// encoding. ok is false when a value has no bucket (a brand-new categorical
// value), in which case the caller must trigger a full rebuild.
func codesForInsert(g *storage.Graph, levels []level, e storage.EdgeID, nbr storage.VertexID) ([]uint16, bool) {
	out := make([]uint16, len(levels))
	for i, l := range levels {
		var idx int
		if l.key.Var == pred.VarAdj {
			idx = int(e)
		} else {
			idx = int(nbr)
		}
		if idx < len(l.cat.Codes) {
			out[i] = l.cat.Codes[idx]
			continue
		}
		b, ok := l.cat.BucketOf(l.valueOf(g, e, nbr))
		if !ok {
			return nil, false
		}
		out[i] = b
	}
	return out, true
}

// sortOrdinal computes the sort ordinal of an adjacency entry under one sort
// key. Ordinals order entries identically to comparing the underlying
// values, with NULLs last.
func sortOrdinal(g *storage.Graph, k SortKey, e storage.EdgeID, nbr storage.VertexID) uint64 {
	switch {
	case k.Var == pred.VarNbr && k.Prop == pred.PropID:
		return uint64(nbr)
	case k.Var == pred.VarNbr && k.Prop == pred.PropLabel:
		return uint64(g.VertexLabel(nbr))
	case k.Var == pred.VarNbr:
		if col, ok := g.VertexColumn(k.Prop); ok {
			return col.SortOrdinal(int(nbr))
		}
		return ^uint64(0)
	case k.Var == pred.VarAdj && k.Prop == pred.PropID:
		return uint64(e)
	case k.Var == pred.VarAdj && k.Prop == pred.PropLabel:
		return uint64(g.EdgeLabel(e))
	default:
		if col, ok := g.EdgeColumn(k.Prop); ok {
			return col.SortOrdinal(int(e))
		}
		return ^uint64(0)
	}
}

func sortOrdinals(g *storage.Graph, sorts []SortKey, e storage.EdgeID, nbr storage.VertexID) [2]uint64 {
	var out [2]uint64
	for i, s := range sorts {
		out[i] = sortOrdinal(g, s, e, nbr)
	}
	return out
}

// SortKeyOrdinal exposes ordinal computation for executor-side binary
// searches inside sorted lists (e.g. locating a neighbour-label segment
// under the Ds configuration).
func SortKeyOrdinal(g *storage.Graph, k SortKey, e storage.EdgeID, nbr storage.VertexID) uint64 {
	return sortOrdinal(g, k, e, nbr)
}

// OrdinalOfValue maps a constant to the ordinal space of a sort key so that
// equality segments can be located by binary search. ok is false when the
// value cannot appear under that key.
func OrdinalOfValue(g *storage.Graph, k SortKey, v storage.Value) (uint64, bool) {
	if v.IsNull() {
		return ^uint64(0), true
	}
	switch {
	case k.Prop == pred.PropID:
		if v.Kind != storage.KindInt {
			return 0, false
		}
		return uint64(uint32(v.I)), true
	case k.Prop == pred.PropLabel:
		var id storage.LabelID
		var ok bool
		if k.Var == pred.VarNbr {
			id, ok = g.Catalog().LookupVertexLabel(v.S)
		} else {
			id, ok = g.Catalog().LookupEdgeLabel(v.S)
		}
		if !ok {
			return 0, false
		}
		return uint64(id), true
	default:
		var col *storage.Column
		var ok bool
		if k.Var == pred.VarNbr {
			col, ok = g.VertexColumn(k.Prop)
		} else {
			col, ok = g.EdgeColumn(k.Prop)
		}
		if !ok {
			return 0, false
		}
		return valueOrdinal(col, v)
	}
}

func valueOrdinal(col *storage.Column, v storage.Value) (uint64, bool) {
	switch col.Kind {
	case storage.KindInt, storage.KindBool:
		if v.Kind != storage.KindInt && v.Kind != storage.KindBool {
			return 0, false
		}
		return uint64(v.I) ^ (1 << 63), true
	case storage.KindFloat:
		switch v.Kind {
		case storage.KindFloat:
			return storage.FloatOrdinal(v.F), true
		case storage.KindInt:
			return storage.FloatOrdinal(float64(v.I)), true
		}
		return 0, false
	case storage.KindString:
		if v.Kind != storage.KindString {
			return 0, false
		}
		code, ok := col.Dict().Lookup(v.S)
		if !ok {
			return 0, false
		}
		return uint64(col.Dict().Rank(code)), true
	default:
		return 0, false
	}
}
