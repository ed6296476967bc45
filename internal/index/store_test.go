package index

import (
	"testing"

	"github.com/aplusdb/aplus/internal/pred"
	"github.com/aplusdb/aplus/internal/storage"
)

func exampleStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(storage.ExampleGraph(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreReconfigure(t *testing.T) {
	s := exampleStore(t)
	cfg := Config{
		Partitions: []PartitionKey{
			{Var: pred.VarAdj, Prop: pred.PropLabel},
			{Var: pred.VarAdj, Prop: storage.PropCurrency},
		},
		Sorts: []SortKey{{Var: pred.VarNbr, Prop: storage.PropCity}},
	}
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if got := s.Primary().Config().SortSignature(); got != "vnbr.city" {
		t.Errorf("signature after reconfigure = %q", got)
	}
	codes, ok := s.Primary().ResolveCodes([]storage.Value{
		storage.Str(storage.LabelWire), storage.Str("€"),
	})
	if !ok || s.Primary().List(FW, 0, codes).Len() != 2 {
		t.Error("reconfigured lookup broken")
	}
}

func TestStoreCreateAndDrop(t *testing.T) {
	s := exampleStore(t)
	_, err := s.CreateVertexPartitioned(VPDef{
		View: View1Hop{Name: "V1"}, Dirs: []Direction{FW}, Cfg: DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate names rejected.
	if _, err := s.CreateVertexPartitioned(VPDef{
		View: View1Hop{Name: "V1"}, Dirs: []Direction{FW}, Cfg: DefaultConfig(),
	}); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := s.CreateEdgePartitioned(moneyFlowDef()); err != nil {
		t.Fatal(err)
	}
	if len(s.VertexIndexes()) != 1 || len(s.EdgeIndexes()) != 1 {
		t.Fatal("registration broken")
	}
	if !s.DropIndex("MoneyFlow") || s.DropIndex("MoneyFlow") {
		t.Error("drop semantics broken")
	}
	st := s.Stats()
	if st.TotalBytes() <= 0 || st.IndexedEdges <= 0 {
		t.Error("stats broken")
	}
}
