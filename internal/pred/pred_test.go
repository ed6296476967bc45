package pred

import (
	"testing"

	"github.com/aplusdb/aplus/internal/storage"
)

func TestEvalConstTerms(t *testing.T) {
	g := storage.ExampleGraph()
	// t4 is a Wire of 200 EUR from v1.
	adj := storage.Transfer(4)
	cases := []struct {
		term Term
		want bool
	}{
		{ConstTerm(VarAdj, "amt", GT, storage.Int(100)), true},
		{ConstTerm(VarAdj, "amt", GT, storage.Int(200)), false},
		{ConstTerm(VarAdj, "amt", GE, storage.Int(200)), true},
		{ConstTerm(VarAdj, "currency", EQ, storage.Str("€")), true},
		{ConstTerm(VarAdj, PropLabel, EQ, storage.Str(storage.LabelWire)), true},
		{ConstTerm(VarAdj, PropLabel, EQ, storage.Str(storage.LabelDeposit)), false},
		{ConstTerm(VarSrc, "city", EQ, storage.Str("SF")), true},
		{ConstTerm(VarDst, "city", EQ, storage.Str("BOS")), true},
		{ConstTerm(VarSrc, PropID, LT, storage.Int(3)), true},
		{ConstTerm(VarAdj, "missing", EQ, storage.Int(1)), false}, // NULL fails
	}
	for _, c := range cases {
		p := Predicate{}.And(c.term)
		if got := Compile(p, g).Eval(adj, 0, false); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.term, got, c.want)
		}
	}
}

func TestEvalBoundEdgeTerms(t *testing.T) {
	g := storage.ExampleGraph()
	// MoneyFlow predicate: eb.date < eadj.date AND eb.amt > eadj.amt.
	p := Predicate{}.
		And(VarTerm(VarBound, "date", LT, VarAdj, "date")).
		And(VarTerm(VarBound, "amt", GT, VarAdj, "amt"))
	// t13 bound, t19 adjacent: satisfied.
	c := Compile(p, g)
	if !c.Eval(storage.Transfer(19), storage.Transfer(13), true) {
		t.Error("t19 should satisfy the MoneyFlow predicate for t13")
	}
	// t13 bound, t14 adjacent: amount 10 is not < 10.
	if c.Eval(storage.Transfer(14), storage.Transfer(13), true) {
		t.Error("t14 should not satisfy (amount not smaller)")
	}
	// Without a bound edge, bound terms are NULL and fail.
	if c.Eval(storage.Transfer(14), storage.Transfer(13), false) {
		t.Error("missing bound edge must fail")
	}
}

func TestResolveNbr(t *testing.T) {
	p := Predicate{}.And(ConstTerm(VarNbr, "city", EQ, storage.Str("SF")))
	fw := p.ResolveNbr(true)
	if fw.Terms[0].Left.Var != VarDst {
		t.Errorf("forward vnbr should resolve to vd, got %v", fw.Terms[0].Left.Var)
	}
	bw := p.ResolveNbr(false)
	if bw.Terms[0].Left.Var != VarSrc {
		t.Errorf("backward vnbr should resolve to vs, got %v", bw.Terms[0].Left.Var)
	}
	// Variable-variable term with vnbr on the right.
	q := Predicate{}.And(VarTerm(VarBound, "amt", GT, VarNbr, "x"))
	r := q.ResolveNbr(true)
	found := false
	for _, term := range r.Terms {
		if term.Left.Var == VarDst || term.Right.Var == VarDst {
			found = true
		}
		if term.Left.Var == VarNbr || term.Right.Var == VarNbr {
			t.Error("vnbr survived resolution")
		}
	}
	if !found {
		t.Error("vd not substituted")
	}
}

func TestNormalizeFlipsSides(t *testing.T) {
	// eadj.date > eb.date normalizes to eb.date < eadj.date (lower Var left).
	term := VarTerm(VarAdj, "date", GT, VarBound, "date")
	n := term.Normalize()
	if n.Left.Var != VarAdj {
		// VarAdj(1) < VarBound(5): left should stay VarAdj.
		t.Fatalf("unexpected normalize result %v", n)
	}
	term2 := VarTerm(VarBound, "date", LT, VarAdj, "date")
	n2 := term2.Normalize()
	if !termEqual(n.Normalize(), n2.Normalize()) {
		t.Errorf("normalized forms differ: %v vs %v", n, n2)
	}
}

func TestPredicateString(t *testing.T) {
	p := Predicate{}.
		And(ConstTerm(VarAdj, "amt", GT, storage.Int(5))).
		And(VarTerm(VarBound, "date", LT, VarAdj, "date"))
	if p.String() == "" || (Predicate{}).String() != "true" {
		t.Error("String rendering broken")
	}
}

func TestCompareNullStrict(t *testing.T) {
	if Compare(storage.NullValue, EQ, storage.NullValue) {
		t.Error("NULL = NULL must be false")
	}
	if Compare(storage.Int(1), NE, storage.NullValue) {
		t.Error("1 <> NULL must be false (strict)")
	}
}
