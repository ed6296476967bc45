// Package advisor implements the index-selection helper sketched in
// Section IV-D of the paper: given a workload, it enumerates the space of
// A+ indexes that could serve it — equality predicates on categorical
// properties become partitioning-level candidates, non-equality predicates
// become sorting candidates, inter-edge predicates become 2-hop view
// candidates — and scores each candidate with a "what-if" analysis in the
// style of AutoAdmin: the candidate is built, every workload query is
// re-optimized (not executed), and the improvement in estimated i-cost is
// the candidate's benefit. A greedy pass then picks candidates under a
// space budget.
package advisor

import (
	"fmt"
	"sort"

	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/opt"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/query"
)

// Candidate is one recommended secondary index.
type Candidate struct {
	// VP or EP holds the definition (exactly one is set).
	VP *index.VPDef
	EP *index.EPDef
	// DDL renders the candidate as the paper's CREATE command.
	DDL string
	// Benefit is the total reduction in estimated i-cost across the
	// workload.
	Benefit float64
	// MemBytes is the measured footprint of the built candidate.
	MemBytes int64
}

// Name returns the candidate's view name.
func (c Candidate) Name() string {
	if c.VP != nil {
		return c.VP.View.Name
	}
	return c.EP.View.Name
}

// Recommend enumerates and scores candidates for the workload and returns
// the greedy selection fitting in budgetBytes (0 = unlimited), ordered by
// benefit. The store is left unchanged: every candidate index is dropped
// after scoring.
func Recommend(s *index.Store, workload []*query.Graph, budgetBytes int64) ([]Candidate, error) {
	base, err := totalCost(s, workload)
	if err != nil {
		return nil, err
	}
	var out []Candidate
	for _, cand := range enumerate(workload) {
		mem, err := build(s, cand)
		if err != nil {
			// Candidates that cannot be built (e.g. property missing from
			// the data) are skipped, not fatal.
			continue
		}
		cost, err := totalCost(s, workload)
		drop(s, cand)
		if err != nil {
			return nil, err
		}
		if benefit := base - cost; benefit > 0 {
			cand.Benefit = benefit
			cand.MemBytes = mem
			out = append(out, cand)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benefit > out[j].Benefit })
	// Greedy selection under the budget.
	if budgetBytes > 0 {
		var picked []Candidate
		var used int64
		for _, c := range out {
			if used+c.MemBytes <= budgetBytes {
				picked = append(picked, c)
				used += c.MemBytes
			}
		}
		out = picked
	}
	return out, nil
}

func totalCost(s *index.Store, workload []*query.Graph) (float64, error) {
	var total float64
	for _, q := range workload {
		plan, err := opt.Optimize(s, q, opt.ModeDefault)
		if err != nil {
			return 0, err
		}
		total += plan.EstimatedICost
	}
	return total, nil
}

func build(s *index.Store, c Candidate) (int64, error) {
	if c.VP != nil {
		v, err := s.CreateVertexPartitioned(*c.VP)
		if err != nil {
			return 0, err
		}
		return v.MemoryBytes(), nil
	}
	e, err := s.CreateEdgePartitioned(*c.EP)
	if err != nil {
		return 0, err
	}
	return e.MemoryBytes(), nil
}

func drop(s *index.Store, c Candidate) {
	s.DropIndex(c.Name())
}

// enumerate derives candidate definitions from the workload's predicates
// (Section IV-D: "enumerating each 1-hop and 2-hop sub-query ... equality
// predicates on categorical properties ... are candidates for partitioning
// levels, and non-equality predicates on other properties ... candidates
// for sorting criterion").
func enumerate(workload []*query.Graph) []Candidate {
	var out []Candidate
	seen := map[string]bool{}
	add := func(c Candidate) {
		if !seen[c.DDL] {
			seen[c.DDL] = true
			out = append(out, c)
		}
	}
	n := 0
	for _, q := range workload {
		for _, p := range q.Preds {
			switch {
			case !p.IsConst() && q.IsVertexVar(p.LeftVar) && q.IsVertexVar(p.RightVar) &&
				p.Op == pred.EQ && p.LeftProp == p.RightProp:
				// vertex-property equality join -> vnbr-sorted VP.
				n++
				add(vpSortedOnNbr(fmt.Sprintf("adv_vp%d", n), p.LeftProp))
			case p.IsConst() && q.IsEdgeVar(p.LeftVar) && p.Op != pred.EQ && p.Op != pred.NE:
				// range predicate on an edge property -> eadj-sorted VP.
				n++
				add(vpSortedOnEdge(fmt.Sprintf("adv_vp%d", n), p.LeftProp))
			case !p.IsConst() && q.IsEdgeVar(p.LeftVar) && q.IsEdgeVar(p.RightVar):
				// inter-edge predicate -> candidate 2-hop view when the two
				// query edges are consecutive (share a vertex head-to-tail).
				if epd := epFromPair(q, p, fmt.Sprintf("adv_ep%d", n+1)); epd != nil {
					n++
					add(*epd)
				}
			}
		}
	}
	return out
}

func vpSortedOnNbr(name, prop string) Candidate {
	def := index.VPDef{
		View: index.View1Hop{Name: name},
		Dirs: []index.Direction{index.FW, index.BW},
		Cfg: index.Config{
			Partitions: index.DefaultConfig().Partitions,
			Sorts:      []index.SortKey{{Var: pred.VarNbr, Prop: prop}},
		},
	}
	return Candidate{
		VP: &def,
		DDL: fmt.Sprintf("CREATE 1-HOP VIEW %s MATCH vs-[eadj]->vd INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.%s",
			name, prop),
	}
}

func vpSortedOnEdge(name, prop string) Candidate {
	def := index.VPDef{
		View: index.View1Hop{Name: name},
		Dirs: []index.Direction{index.FW},
		Cfg: index.Config{
			Partitions: index.DefaultConfig().Partitions,
			Sorts:      []index.SortKey{{Var: pred.VarAdj, Prop: prop}},
		},
	}
	return Candidate{
		VP: &def,
		DDL: fmt.Sprintf("CREATE 1-HOP VIEW %s MATCH vs-[eadj]->vd INDEX AS FW PARTITION BY eadj.label SORT BY eadj.%s",
			name, prop),
	}
}

// epFromPair builds a Destination-FW 2-hop view candidate from an
// inter-edge predicate between consecutive query edges, collecting every
// inter-edge term of the pair so the view predicate matches the workload's
// full Pf conjunction.
func epFromPair(q *query.Graph, p query.Pred, name string) *Candidate {
	li, _ := q.EdgeIndex(p.LeftVar)
	ri, _ := q.EdgeIndex(p.RightVar)
	le, re := q.Edges[li], q.Edges[ri]
	// Orient so eb's destination is eadj's source.
	var eb, eadj query.Edge
	switch {
	case le.Dst == re.Src:
		eb, eadj = le, re
	case re.Dst == le.Src:
		eb, eadj = re, le
	default:
		return nil
	}
	var viewPred pred.Predicate
	for _, t := range q.Preds {
		if t.IsConst() {
			continue
		}
		var term pred.Term
		switch {
		case t.LeftVar == eb.Name && t.RightVar == eadj.Name:
			term = pred.VarTermShift(pred.VarBound, t.LeftProp, t.Op, pred.VarAdj, t.RightProp, t.RightShift)
		case t.LeftVar == eadj.Name && t.RightVar == eb.Name:
			term = pred.VarTermShift(pred.VarAdj, t.LeftProp, t.Op, pred.VarBound, t.RightProp, t.RightShift)
		default:
			continue
		}
		viewPred = viewPred.And(term)
	}
	if viewPred.IsTrue() {
		return nil
	}
	def := index.EPDef{
		View: index.View2Hop{Name: name, Dir: index.DestinationFW, Pred: viewPred},
		Cfg:  index.DefaultConfig(),
	}
	return &Candidate{
		EP:  &def,
		DDL: fmt.Sprintf("CREATE 2-HOP VIEW %s MATCH vs-[eb]->vd-[eadj]->vnbr WHERE %s INDEX AS PARTITION BY eadj.label", name, viewPred),
	}
}
