package index

// Checkpoint serialization of the index store. The primary indexes are
// written structurally — configuration, edge bound, and both nested CSRs —
// so Open restores them without re-sorting the edge set. Secondary indexes
// are written as their definitions only (view name, predicate, directions,
// configuration): their offset lists are a deterministic function of the
// primary index and the graph, and are rebuilt on decode. Partition levels
// and sort ordinals are likewise rebuilt from the decoded graph, which
// yields exactly the encodings the checkpointed store was built with
// (categorical bucket order is content-determined).

import (
	"fmt"

	"github.com/aplusdb/aplus/internal/csr"
	"github.com/aplusdb/aplus/internal/enc"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

func encodeKey(w *enc.Writer, v pred.Var, prop string) {
	w.U8(uint8(v))
	w.String(prop)
}

// EncodeConfig appends an index configuration.
func EncodeConfig(w *enc.Writer, c Config) {
	w.Uvarint(uint64(len(c.Partitions)))
	for _, p := range c.Partitions {
		encodeKey(w, p.Var, p.Prop)
	}
	w.Uvarint(uint64(len(c.Sorts)))
	for _, s := range c.Sorts {
		encodeKey(w, s.Var, s.Prop)
	}
}

// DecodeConfig reads an index configuration.
func DecodeConfig(r *enc.Reader) Config {
	var c Config
	for n := r.Len(2); n > 0; n-- {
		v := pred.Var(r.U8())
		c.Partitions = append(c.Partitions, PartitionKey{Var: v, Prop: r.String()})
	}
	for n := r.Len(2); n > 0; n-- {
		v := pred.Var(r.U8())
		c.Sorts = append(c.Sorts, SortKey{Var: v, Prop: r.String()})
	}
	return c
}

// EncodePredicate appends a view predicate.
func EncodePredicate(w *enc.Writer, p pred.Predicate) {
	w.Uvarint(uint64(len(p.Terms)))
	for _, t := range p.Terms {
		encodeKey(w, t.Left.Var, t.Left.Prop)
		w.U8(uint8(t.Op))
		encodeKey(w, t.Right.Var, t.Right.Prop)
		storage.EncodeValue(w, t.Const)
		w.Varint(t.Shift)
	}
}

// DecodePredicate reads a view predicate.
func DecodePredicate(r *enc.Reader) pred.Predicate {
	var p pred.Predicate
	for n := r.Len(5); n > 0; n-- {
		var t pred.Term
		t.Left.Var = pred.Var(r.U8())
		t.Left.Prop = r.String()
		t.Op = pred.Op(r.U8())
		t.Right.Var = pred.Var(r.U8())
		t.Right.Prop = r.String()
		t.Const = storage.DecodeValue(r)
		t.Shift = r.Varint()
		p.Terms = append(p.Terms, t)
	}
	return p
}

// EncodeVPDef appends a vertex-partitioned index definition.
func EncodeVPDef(w *enc.Writer, d VPDef) {
	w.String(d.View.Name)
	EncodePredicate(w, d.View.Pred)
	w.Uvarint(uint64(len(d.Dirs)))
	for _, dir := range d.Dirs {
		w.U8(uint8(dir))
	}
	EncodeConfig(w, d.Cfg)
}

// DecodeVPDef reads a vertex-partitioned index definition.
func DecodeVPDef(r *enc.Reader) VPDef {
	var d VPDef
	d.View.Name = r.String()
	d.View.Pred = DecodePredicate(r)
	for n := r.Len(1); n > 0; n-- {
		d.Dirs = append(d.Dirs, Direction(r.U8()))
	}
	d.Cfg = DecodeConfig(r)
	return d
}

// EncodeEPDef appends an edge-partitioned index definition.
func EncodeEPDef(w *enc.Writer, d EPDef) {
	w.String(d.View.Name)
	w.U8(uint8(d.View.Dir))
	EncodePredicate(w, d.View.Pred)
	EncodeConfig(w, d.Cfg)
}

// DecodeEPDef reads an edge-partitioned index definition.
func DecodeEPDef(r *enc.Reader) EPDef {
	var d EPDef
	d.View.Name = r.String()
	d.View.Dir = EPDirection(r.U8())
	d.View.Pred = DecodePredicate(r)
	d.Cfg = DecodeConfig(r)
	return d
}

// EncodeStore appends a checkpoint image of a frozen base store: the primary
// configuration and CSRs plus every secondary index descriptor. The store
// must be a published (immutable) base, exactly what the snapshot layer
// hands to checkpoint writers. The graph is encoded separately
// (storage.EncodeGraph); DecodeStore stitches them back together.
func EncodeStore(w *enc.Writer, s *Store) {
	EncodeConfig(w, s.primary.cfg)
	w.Uvarint(uint64(s.primary.edgeBound))
	s.primary.fw.Encode(w)
	s.primary.bw.Encode(w)
	w.Uvarint(uint64(len(s.vps)))
	for _, v := range s.vps {
		EncodeVPDef(w, v.def)
	}
	w.Uvarint(uint64(len(s.eps)))
	for _, e := range s.eps {
		EncodeEPDef(w, e.def)
	}
}

// DecodeStore reconstructs a store over g from an EncodeStore image,
// rebuilding partition levels and secondary offset lists (both deterministic
// functions of the graph, the decoded CSRs, and the descriptors).
func DecodeStore(r *enc.Reader, g *storage.Graph) (*Store, error) {
	cfg := DecodeConfig(r)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	edgeBound := storage.EdgeID(r.Uvarint())
	fw, err := csr.DecodeCSR(r)
	if err != nil {
		return nil, err
	}
	bw, err := csr.DecodeCSR(r)
	if err != nil {
		return nil, err
	}
	if int(edgeBound) > g.NumEdges() {
		return nil, fmt.Errorf("index: decoded edge bound %d exceeds graph's %d edge slots", edgeBound, g.NumEdges())
	}
	if fw.NumOwners() > g.NumVertices() || bw.NumOwners() > g.NumVertices() {
		return nil, fmt.Errorf("index: decoded CSR covers more owners than the graph's %d vertices", g.NumVertices())
	}
	levels, err := buildLevels(g, cfg.Partitions)
	if err != nil {
		return nil, err
	}
	cards := levelCards(levels)
	for _, c := range [2]*csr.CSR{fw, bw} {
		got := c.Cards()
		if len(got) != len(cards) {
			return nil, fmt.Errorf("index: decoded CSR has %d levels, config wants %d", len(got), len(cards))
		}
		for i := range got {
			if got[i] != cards[i] {
				return nil, fmt.Errorf("index: decoded CSR level %d cardinality %d, graph yields %d", i, got[i], cards[i])
			}
		}
	}
	p := &Primary{
		g:         g,
		cfg:       cfg,
		levels:    levels,
		fw:        fw,
		bw:        bw,
		edgeBound: edgeBound,
	}
	s := &Store{g: g, primary: p}
	for n := r.Len(1); n > 0; n-- {
		def := DecodeVPDef(r)
		if r.Err() != nil {
			return nil, r.Err()
		}
		v, err := BuildVertexPartitioned(p, def)
		if err != nil {
			return nil, fmt.Errorf("index: rebuild view %q: %w", def.View.Name, err)
		}
		s.vps = append(s.vps, v)
	}
	for n := r.Len(1); n > 0; n-- {
		def := DecodeEPDef(r)
		if r.Err() != nil {
			return nil, r.Err()
		}
		e, err := BuildEdgePartitioned(p, def)
		if err != nil {
			return nil, fmt.Errorf("index: rebuild view %q: %w", def.View.Name, err)
		}
		s.eps = append(s.eps, e)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return s, nil
}
