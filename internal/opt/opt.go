package opt

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"github.com/aplusdb/aplus/internal/exec"
	"github.com/aplusdb/aplus/internal/index"
	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/query"
	"github.com/aplusdb/aplus/internal/storage"
)

// planner carries the optimization context.
type planner struct {
	s     *index.Store
	g     *storage.Graph
	q     *query.Graph
	mode  Mode
	stats stats
}

// state is a DP entry: the cheapest known pipeline binding a set of query
// vertices (and, implied, every query edge between them).
type state struct {
	mask    uint32 // bound query vertices
	emask   uint64 // bound query edges
	applied []bool // query predicates already enforced
	cost    float64
	card    float64
	ops     []exec.Op
	// extraTerms carries label residuals between beginExtend and the
	// trailing filter application.
	extraTerms []exec.CompiledTerm
}

func (st *state) boundV(i int) bool { return st.mask&(1<<uint(i)) != 0 }
func (st *state) boundE(j int) bool { return st.emask&(1<<uint(j)) != 0 }

func (st *state) clone() *state {
	ns := *st
	ns.applied = append([]bool(nil), st.applied...)
	ns.ops = append([]exec.Op(nil), st.ops...)
	return &ns
}

// Optimize produces the lowest-i-cost plan for q over the store's indexes
// under the given mode.
func Optimize(s *index.Store, q *query.Graph, mode Mode) (*exec.Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(q.Vertices) > 16 {
		return nil, fmt.Errorf("opt: queries with more than 16 vertices are not supported")
	}
	for _, e := range q.Edges {
		if e.Src == e.Dst {
			return nil, fmt.Errorf("opt: self-loop query edges are not supported")
		}
	}
	pl := &planner{s: s, g: s.Graph(), q: q, mode: mode, stats: newStats(s.Graph())}

	table := make(map[uint32]*state)
	consider := func(ns *state) {
		if cur, ok := table[ns.mask]; !ok || ns.cost < cur.cost {
			table[ns.mask] = ns
		}
	}
	for i := range q.Vertices {
		consider(pl.scanState(i))
	}
	for j := range q.Edges {
		if ns := pl.scanEdgeState(j); ns != nil {
			consider(ns)
		}
	}

	n := len(q.Vertices)
	full := uint32(1)<<uint(n) - 1
	for pc := 1; pc < n; pc++ {
		var masks []uint32
		for m := range table {
			if bits.OnesCount32(m) == pc {
				masks = append(masks, m)
			}
		}
		sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
		for _, m := range masks {
			st := table[m]
			pl.extendAll(st, consider)
			if !pl.mode.DisableMultiExtend && !pl.mode.DisableWCOJ {
				pl.multiExtendAll(st, consider)
			}
		}
	}
	best, ok := table[full]
	if !ok {
		return nil, fmt.Errorf("opt: no plan found (disconnected pattern?)")
	}
	plan := &exec.Plan{
		Ops:            sinkIndependentExtends(best.ops, len(q.Vertices), len(q.Edges)),
		NumV:           len(q.Vertices),
		NumE:           len(q.Edges),
		EstimatedICost: best.cost,
	}
	for _, v := range q.Vertices {
		plan.VertexNames = append(plan.VertexNames, v.Name)
	}
	for _, e := range q.Edges {
		plan.EdgeNames = append(plan.EdgeNames, e.Name)
	}
	return plan, nil
}

// sinkIndependentExtends moves interior pure EXTENDs (one list, no sorted
// segment) whose bound variable and matched edge are never referenced by a
// later operator to the plan tail, preserving relative order. Such
// independent fan-outs contribute a pure multiplicity to every downstream
// tuple; at the tail they land inside the counting/aggregate fold boundary
// (exec's countFoldStart), which turns their enumeration into arithmetic.
// The match multiset is unchanged — the sunk operator's extensions are
// independent of everything that now runs before it — while the enumerated
// i-cost drops to exactly what the fold charges for the reordered pipeline.
func sinkIndependentExtends(ops []exec.Op, numV, numE int) []exec.Op {
	n := len(ops)
	if n < 3 {
		return ops // nothing interior to move
	}
	readV := make([]bool, numV)
	readE := make([]bool, numE)
	sinkable := make([]bool, n)
	any := false
	// Walk tail-first: at index i the masks hold the slots operators i+1..
	// read, so an operator is sinkable when nothing later reads what it
	// binds. Operator 0 (the partitioned root scan) never sinks.
	for i := n - 1; i >= 1; i-- {
		if e, ok := ops[i].(*exec.ExtendIntersectOp); ok && len(e.Lists) == 1 && e.Lists[0].Seg == nil {
			if !readV[e.TargetSlot] && !readE[e.Lists[0].EdgeSlot] {
				sinkable[i] = true
				any = true
			}
		}
		markOpReads(ops[i], readV, readE)
	}
	if !any || trailingSinkableRun(sinkable) {
		return ops // nothing moves: the sinkable ops already form the tail
	}
	body := make([]exec.Op, 0, n)
	tail := make([]exec.Op, 0, n)
	for i, op := range ops {
		if sinkable[i] {
			tail = append(tail, op)
		} else {
			body = append(body, op)
		}
	}
	return append(body, tail...)
}

// trailingSinkableRun reports whether every sinkable operator already sits
// in one contiguous run at the end of the plan (so sinking is a no-op).
func trailingSinkableRun(sinkable []bool) bool {
	i := len(sinkable) - 1
	for i >= 0 && sinkable[i] {
		i--
	}
	for ; i >= 0; i-- {
		if sinkable[i] {
			return false
		}
	}
	return true
}

// markOpReads marks the binding slots op reads under a bound prefix.
func markOpReads(op exec.Op, readV, readE []bool) {
	ref := func(r *exec.ListRef) {
		if r.Kind == exec.ListEP {
			readE[r.OwnerEdgeSlot] = true
		} else {
			readV[r.OwnerVertexSlot] = true
		}
		if r.Seg != nil && r.Seg.DynEq != nil {
			markOperandRead(*r.Seg.DynEq, readV, readE)
		}
	}
	terms := func(ts []exec.CompiledTerm) {
		for _, t := range ts {
			markOperandRead(t.Left, readV, readE)
			markOperandRead(t.Right, readV, readE)
		}
	}
	switch o := op.(type) {
	case *exec.ExtendIntersectOp:
		for i := range o.Lists {
			ref(&o.Lists[i])
		}
	case *exec.MultiExtendOp:
		for gi := range o.Groups {
			for i := range o.Groups[gi].Lists {
				ref(&o.Groups[gi].Lists[i])
			}
		}
	case *exec.CloseEdgeOp:
		readV[o.TargetSlot] = true
		r := o.List
		ref(&r)
	case *exec.FilterOp:
		terms(o.Terms)
	case *exec.ScanVertexOp:
		terms(o.Terms) // scans only ever lead a plan, but stay conservative
	case *exec.ScanEdgeOp:
		terms(o.Terms)
	default:
		// Unknown operator: assume it reads everything, so nothing sinks
		// past it.
		for i := range readV {
			readV[i] = true
		}
		for i := range readE {
			readE[i] = true
		}
	}
}

func markOperandRead(o exec.Operand, readV, readE []bool) {
	if o.IsConst {
		return
	}
	if o.IsEdge {
		readE[o.Slot] = true
	} else {
		readV[o.Slot] = true
	}
}

// scanState builds the initial state scanning query vertex i.
func (pl *planner) scanState(i int) *state {
	q := pl.q
	st := &state{
		mask:    1 << uint(i),
		applied: make([]bool, len(q.Preds)),
		card:    pl.stats.numV,
		cost:    pl.stats.numV,
	}
	op := &exec.ScanVertexOp{Slot: i}
	if lbl := q.Vertices[i].Label; lbl != "" {
		if lid, ok := pl.g.Catalog().LookupVertexLabel(lbl); ok {
			op.HasLabel, op.Label = true, lid
			st.card = pl.stats.vLabelCounts[lid]
		} else {
			op.HasLabel, op.Label = true, 0xffff
			st.card = 0
		}
	}
	for pi, p := range q.Preds {
		if !p.IsConst() || p.LeftVar != q.Vertices[i].Name {
			continue
		}
		prop := normalizeProp(p.LeftProp)
		if prop == pred.PropID && p.Const.Kind == storage.KindInt && narrowIDs(op, p.Op, p.Const.I) {
			if p.Op == pred.EQ {
				st.cost = 1
				st.card = 1
			} else {
				// The range replaces the term; the estimate is the term's.
				st.card *= termSelectivity(p.Op)
			}
			st.applied[pi] = true
			continue
		}
		op.Terms = append(op.Terms, exec.CompiledTerm{
			Left: exec.VertexOperand(i, prop), Op: p.Op, Right: exec.ConstOperand(p.Const),
		})
		st.card *= termSelectivity(p.Op)
		st.applied[pi] = true
	}
	st.ops = []exec.Op{op}
	if st.card < 1 {
		st.card = 1
	}
	return st
}

// narrowIDs intersects the scan's vertex-ID range with "ID o c" and
// reports whether o is a comparison the range can absorb (all but NE). The
// range starts as [0, MaxInt64); the scan clamps it to the graph it runs
// on, so a cached plan stays right as vertices are added.
func narrowIDs(op *exec.ScanVertexOp, o pred.Op, c int64) bool {
	if o == pred.NE {
		return false
	}
	if op.IDs == nil {
		op.IDs = &exec.IDRange{Lo: 0, Hi: math.MaxInt64}
	}
	r := op.IDs
	// above is c+1 saturated: no vertex has ID MaxInt64.
	above := c
	if c < math.MaxInt64 {
		above = c + 1
	}
	switch o {
	case pred.EQ:
		r.Lo, r.Hi = max(r.Lo, c), min(r.Hi, above)
	case pred.LT:
		r.Hi = min(r.Hi, c)
	case pred.LE:
		r.Hi = min(r.Hi, above)
	case pred.GT:
		r.Lo = max(r.Lo, above)
	case pred.GE:
		r.Lo = max(r.Lo, c)
	}
	return true
}

// scanEdgeState builds an initial state anchored at a query edge with an
// exact-ID predicate (Example 7's r1.eID = t13), or nil when j has none.
func (pl *planner) scanEdgeState(j int) *state {
	q := pl.q
	e := q.Edges[j]
	var exact *storage.EdgeID
	var exactPred int
	for pi, p := range q.Preds {
		if p.IsConst() && p.LeftVar == e.Name && normalizeProp(p.LeftProp) == pred.PropID &&
			p.Op == pred.EQ && p.Const.Kind == storage.KindInt {
			id := storage.EdgeID(p.Const.I)
			exact = &id
			exactPred = pi
			break
		}
	}
	if exact == nil {
		return nil
	}
	si, _ := q.VertexIndex(e.Src)
	di, _ := q.VertexIndex(e.Dst)
	st := &state{
		mask:    1<<uint(si) | 1<<uint(di),
		emask:   1 << uint(j),
		applied: make([]bool, len(q.Preds)),
		card:    1,
		cost:    1,
	}
	st.applied[exactPred] = true
	op := &exec.ScanEdgeOp{EdgeSlot: j, SrcSlot: si, DstSlot: di, ExactID: exact}
	// Label and local predicate checks.
	if e.Label != "" {
		op.Terms = append(op.Terms, exec.CompiledTerm{
			Left: exec.EdgeOperand(j, pred.PropLabel), Op: pred.EQ, Right: exec.ConstOperand(storage.Str(e.Label)),
		})
	}
	for _, vi := range []int{si, di} {
		if lbl := q.Vertices[vi].Label; lbl != "" {
			op.Terms = append(op.Terms, exec.CompiledTerm{
				Left: exec.VertexOperand(vi, pred.PropLabel), Op: pred.EQ, Right: exec.ConstOperand(storage.Str(lbl)),
			})
		}
	}
	st.ops = []exec.Op{op}
	// Close any parallel query edges between the same endpoints.
	for k, other := range q.Edges {
		if k == j || st.boundE(k) {
			continue
		}
		os, _ := q.VertexIndex(other.Src)
		od, _ := q.VertexIndex(other.Dst)
		if st.mask&(1<<uint(os)) != 0 && st.mask&(1<<uint(od)) != 0 {
			pl.closeEdge(st, k, os, od)
		}
	}
	pl.applyReadyFilters(st, nil)
	return st
}

// closeEdge appends a CLOSE operator matching query edge k whose endpoints
// (slots os -> od) are both bound.
func (pl *planner) closeEdge(st *state, k, os, od int) {
	p := pl.s.Primary()
	ref := exec.ListRef{
		Kind: exec.ListPrimary, Dir: index.FW, OwnerVertexSlot: os, EdgeSlot: k,
	}
	sorted := len(p.SortKeys()) == 0
	if lbl := pl.q.Edges[k].Label; lbl != "" {
		if codes, ok := p.ResolveCodes([]storage.Value{storage.Str(lbl)}); ok && matchesLabelLevel(p.PartitionKeys()) {
			ref.Codes = codes
		} else {
			// Label not consumable: filter below.
			defer func() {
				st.ops = append(st.ops, &exec.FilterOp{Terms: []exec.CompiledTerm{{
					Left: exec.EdgeOperand(k, pred.PropLabel), Op: pred.EQ, Right: exec.ConstOperand(storage.Str(lbl)),
				}}})
			}()
		}
	}
	if len(ref.Codes) < len(p.LevelCards()) {
		ref.Expand = exec.ExpandChoices(ref.Codes, p.LevelCards())
	}
	st.ops = append(st.ops, &exec.CloseEdgeOp{List: ref, TargetSlot: od, Sorted: sorted})
	st.emask |= 1 << uint(k)
	st.cost += st.card * pl.stats.avgPrimaryList(false, 0)
	st.card *= selCloseEdge
	if st.card < 0.01 {
		st.card = 0.01
	}
}

func matchesLabelLevel(parts []index.PartitionKey) bool {
	return len(parts) > 0 && parts[0].Var == pred.VarAdj && parts[0].Prop == pred.PropLabel
}

// applyReadyFilters appends a FILTER for every predicate whose variables
// are now bound and that no index access guaranteed. extraTerms are label
// residuals from the current step.
func (pl *planner) applyReadyFilters(st *state, extraTerms []exec.CompiledTerm) {
	var terms []exec.CompiledTerm
	terms = append(terms, extraTerms...)
	for pi, p := range pl.q.Preds {
		if st.applied[pi] || !pl.predReady(st, p) {
			continue
		}
		terms = append(terms, pl.compileQPred(p))
		st.applied[pi] = true
		st.card *= termSelectivity(p.Op)
	}
	if len(terms) > 0 {
		st.ops = append(st.ops, &exec.FilterOp{Terms: terms})
	}
	if st.card < 0.01 {
		st.card = 0.01
	}
}

func (pl *planner) predReady(st *state, p query.Pred) bool {
	if !pl.varBound(st, p.LeftVar) {
		return false
	}
	if !p.IsConst() && !pl.varBound(st, p.RightVar) {
		return false
	}
	return true
}

func (pl *planner) varBound(st *state, name string) bool {
	if i, ok := pl.q.VertexIndex(name); ok {
		return st.boundV(i)
	}
	if j, ok := pl.q.EdgeIndex(name); ok {
		return st.boundE(j)
	}
	return false
}

func (pl *planner) compileQPred(p query.Pred) exec.CompiledTerm {
	t := exec.CompiledTerm{Op: p.Op, Left: pl.operandFor(p.LeftVar, p.LeftProp)}
	if p.IsConst() {
		t.Right = exec.ConstOperand(p.Const)
	} else {
		t.Right = pl.operandFor(p.RightVar, p.RightProp)
		t.Shift = p.RightShift
	}
	return t
}

func (pl *planner) operandFor(name, prop string) exec.Operand {
	prop = normalizeProp(prop)
	if i, ok := pl.q.VertexIndex(name); ok {
		return exec.VertexOperand(i, prop)
	}
	j, _ := pl.q.EdgeIndex(name)
	return exec.EdgeOperand(j, prop)
}

// edgeCands enumerates the candidate access paths for one query-edge
// extension from bound vertex slot u toward w.
func (pl *planner) edgeCands(st *state, qe, w, u int, dir index.Direction) []cand {
	var out []cand
	p := pl.s.Primary()
	d := idxDesc{
		kind: exec.ListPrimary, dir: dir,
		parts: p.PartitionKeys(), sorts: p.SortKeys(), cards: p.LevelCards(),
		baseSize:   pl.stats.avgPrimaryList(false, 0),
		resolve:    p.ResolveCodes,
		ownerVSlot: u, ownerESlot: -1,
	}
	if c, ok := pl.buildCand(st, d, pl.localTerms(qe, w, u, d, -1), qe, w); ok {
		out = append(out, c)
	}
	if pl.mode.DisableSecondary {
		return out
	}
	for _, vp := range pl.s.VertexIndexes() {
		if !vp.HasDirection(dir) {
			continue
		}
		vp := vp
		dirCopy := dir
		d := idxDesc{
			kind: exec.ListVP, dir: dir, vp: vp,
			resolved: vp.ResolvedPred(dir),
			parts:    vp.Config().Partitions, sorts: vp.Config().Sorts, cards: vp.LevelCards(dir),
			baseSize: pl.stats.avgVPList(vp, len(vp.Def().Dirs)),
			resolve: func(vals []storage.Value) ([]uint16, bool) {
				return vp.ResolveCodes(dirCopy, vals)
			},
			ownerVSlot: u, ownerESlot: -1,
		}
		if c, ok := pl.buildCand(st, d, pl.localTerms(qe, w, u, d, -1), qe, w); ok {
			out = append(out, c)
		}
	}
	// Edge-partitioned candidates need a matched bound edge adjacent at u.
	uName := pl.q.Vertices[u].Name
	for _, ep := range pl.s.EdgeIndexes() {
		if ep.EPDir().AdjDirection() != dir {
			continue
		}
		for qb := range pl.q.Edges {
			if !st.boundE(qb) {
				continue
			}
			qbe := pl.q.Edges[qb]
			if ep.EPDir().BoundIsDst() {
				if qbe.Dst != uName {
					continue
				}
			} else if qbe.Src != uName {
				continue
			}
			ep := ep
			d := idxDesc{
				kind: exec.ListEP, dir: dir, ep: ep,
				resolved: ep.ResolvedPred(),
				parts:    ep.Config().Partitions, sorts: ep.Config().Sorts, cards: ep.LevelCards(),
				baseSize:   pl.stats.avgEPList(ep),
				resolve:    ep.ResolveCodes,
				ownerVSlot: u, ownerESlot: qb,
			}
			if c, ok := pl.buildCand(st, d, pl.localTerms(qe, w, u, d, qb), qe, w); ok {
				out = append(out, c)
			}
		}
	}
	return out
}

// extendAll generates every single-target extension from st.
func (pl *planner) extendAll(st *state, consider func(*state)) {
	q := pl.q
	for w := range q.Vertices {
		if st.boundV(w) {
			continue
		}
		type edgeInfo struct {
			qe, u int
			dir   index.Direction
		}
		var infos []edgeInfo
		for qe, e := range q.Edges {
			si, _ := q.VertexIndex(e.Src)
			di, _ := q.VertexIndex(e.Dst)
			switch {
			case si == w && st.boundV(di):
				infos = append(infos, edgeInfo{qe, di, index.BW})
			case di == w && st.boundV(si):
				infos = append(infos, edgeInfo{qe, si, index.FW})
			}
			// Edges touching w whose other endpoint is unbound are matched
			// when that endpoint is extended later.
		}
		if len(infos) == 0 {
			continue
		}
		perEdge := make([][]cand, len(infos))
		for i, info := range infos {
			perEdge[i] = pl.edgeCands(st, info.qe, w, info.u, info.dir)
			if len(perEdge[i]) == 0 {
				perEdge[i] = nil
			}
		}
		viable := true
		for _, cs := range perEdge {
			if cs == nil {
				viable = false
			}
		}
		if !viable {
			continue
		}
		if len(infos) == 1 {
			for _, c := range perEdge[0] {
				pl.emitExtend(st, w, []cand{c}, consider)
			}
			continue
		}
		if pl.mode.DisableWCOJ {
			// Binary joins: extend along one edge, close the rest.
			for ext := range infos {
				chosen := bestCand(perEdge[ext], "")
				if chosen == nil {
					continue
				}
				ns := pl.beginExtend(st, w, []cand{*chosen})
				if ns == nil {
					consider(pl.emptyState(st))
					continue
				}
				extra := ns.extraTerms
				ns.extraTerms = nil
				for o := range infos {
					if o == ext {
						continue
					}
					qe := infos[o].qe
					si, _ := pl.q.VertexIndex(pl.q.Edges[qe].Src)
					di, _ := pl.q.VertexIndex(pl.q.Edges[qe].Dst)
					pl.closeEdge(ns, qe, si, di)
				}
				pl.applyReadyFilters(ns, extra)
				consider(ns)
			}
			continue
		}
		// WCOJ: all lists neighbour-sorted.
		if combo := pickAll(perEdge, "vnbr.ID"); combo != nil {
			pl.emitExtend(st, w, combo, consider)
		}
		// MULTI-EXTEND on a shared property sort. Only neighbour-property
		// sorts qualify: a neighbour has one value of a vnbr property, so
		// it sits in the same ordinal run of every list, whereas an edge
		// property varies per list and would drop matches.
		if !pl.mode.DisableMultiExtend {
			for _, sig := range sigsOf(perEdge[0]) {
				if sig == "vnbr.ID" || !strings.HasPrefix(sig, "vnbr.") {
					continue
				}
				if combo := pickAll(perEdge, sig); combo != nil {
					pl.emitExtend(st, w, combo, consider)
				}
			}
		}
	}
}

func sigsOf(cs []cand) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cs {
		if !seen[c.sig] {
			seen[c.sig] = true
			out = append(out, c.sig)
		}
	}
	sort.Strings(out)
	return out
}

// bestCand returns the smallest candidate, optionally restricted to a sort
// signature ("" = any).
func bestCand(cs []cand, sig string) *cand {
	var best *cand
	for i := range cs {
		c := &cs[i]
		if sig != "" && c.sig != sig && !c.empty {
			continue
		}
		if best == nil || c.size < best.size {
			best = c
		}
	}
	return best
}

// pickAll picks one candidate per edge, all with the given signature;
// nil when some edge has none.
func pickAll(perEdge [][]cand, sig string) []cand {
	out := make([]cand, len(perEdge))
	for i, cs := range perEdge {
		b := bestCand(cs, sig)
		if b == nil {
			return nil
		}
		out[i] = *b
	}
	return out
}

// beginExtend clones st and appends the extension operator; nil signals a
// provably empty extension.
func (pl *planner) beginExtend(st *state, w int, chosen []cand) *state {
	for _, c := range chosen {
		if c.empty {
			return nil
		}
	}
	ns := st.clone()
	ns.mask |= 1 << uint(w)
	var stepCost float64
	var sizes []float64
	sameSigProp := chosen[0].sig != "vnbr.ID" && len(chosen) > 1
	var refs []exec.ListRef
	var extraTerms []exec.CompiledTerm
	vertexLabelCovered := false
	anyVertexLabelFilter := false
	for _, c := range chosen {
		ns.emask |= 1 << uint(c.ref.EdgeSlot)
		stepCost += c.size
		sizes = append(sizes, c.size)
		for _, pi := range c.guaranteed {
			ns.applied[pi] = true
		}
		refs = append(refs, c.ref)
		hasVtxFilter := false
		for _, t := range c.labelFilter {
			if t.Left.IsEdge {
				extraTerms = append(extraTerms, t)
			} else {
				hasVtxFilter = true
			}
		}
		if hasVtxFilter {
			anyVertexLabelFilter = true
		} else {
			vertexLabelCovered = true
		}
	}
	if anyVertexLabelFilter && !vertexLabelCovered {
		extraTerms = append(extraTerms, exec.CompiledTerm{
			Left: exec.VertexOperand(w, pred.PropLabel), Op: pred.EQ,
			Right: exec.ConstOperand(storage.Str(pl.q.Vertices[w].Label)),
		})
	}
	if sameSigProp {
		// Single-group MULTI-EXTEND on a property sort.
		sk, ok := sortKeyOfSig(chosen[0].sig)
		if !ok {
			return nil
		}
		ns.ops = append(ns.ops, &exec.MultiExtendOp{Key: sk, Groups: []exec.MEGroup{{TargetSlot: w, Lists: refs}}})
	} else {
		ns.ops = append(ns.ops, &exec.ExtendIntersectOp{TargetSlot: w, Lists: refs})
	}
	ns.cost += ns.card * stepCost
	if len(chosen) == 1 {
		ns.card *= math.Max(sizes[0], 0.05)
	} else {
		ns.card *= pl.stats.intersectCard(sizes)
	}
	ns.extraTerms = extraTerms
	return ns
}

// emitExtend finishes an extension option and offers it to the DP table.
func (pl *planner) emitExtend(st *state, w int, chosen []cand, consider func(*state)) {
	ns := pl.beginExtend(st, w, chosen)
	if ns == nil {
		consider(pl.emptyState(st))
		return
	}
	pl.applyReadyFilters(ns, ns.extraTerms)
	ns.extraTerms = nil
	consider(ns)
}

// emptyState short-circuits a provably empty result: the stream is empty,
// so the remaining query is trivially satisfied.
func (pl *planner) emptyState(st *state) *state {
	ns := st.clone()
	ns.mask = uint32(1)<<uint(len(pl.q.Vertices)) - 1
	ns.emask = uint64(1)<<uint(len(pl.q.Edges)) - 1
	for i := range ns.applied {
		ns.applied[i] = true
	}
	// No vertex ID is negative, so this FILTER rejects every tuple (and, like
	// any term, counts one predicate evaluation per tuple it sees).
	f := exec.CompiledTerm{Left: exec.VertexOperand(0, pred.PropID), Op: pred.LT, Right: exec.ConstOperand(storage.Int(0))}
	ns.ops = append(ns.ops, &exec.FilterOp{Terms: []exec.CompiledTerm{f}})
	ns.card = 0
	return ns
}

func sortKeyOfSig(sig string) (index.SortKey, bool) {
	for _, v := range []pred.Var{pred.VarNbr, pred.VarAdj} {
		prefix := v.String() + "."
		if len(sig) > len(prefix) && sig[:len(prefix)] == prefix {
			return index.SortKey{Var: v, Prop: sig[len(prefix):]}, true
		}
	}
	return index.SortKey{}, false
}
