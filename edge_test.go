package dynplan

import (
	"context"
	"strings"
	"testing"
)

// TestEmptyRelation pushes a zero-cardinality relation through the whole
// stack: optimization, module round trip, activation, and execution.
func TestEmptyRelation(t *testing.T) {
	sys := New()
	sys.MustCreateRelation("void", 0, 512,
		Attr{Name: "a", DomainSize: 1, BTree: true},
	)
	sys.MustCreateRelation("other", 50, 512,
		Attr{Name: "k", DomainSize: 10, BTree: true},
		Attr{Name: "a", DomainSize: 1, BTree: true},
	)
	q, err := sys.BuildQuery(QuerySpec{
		Relations: []RelSpec{
			{Name: "void", Pred: &Pred{Attr: "a", Variable: "v"}},
			{Name: "other"},
		},
		Joins: []JoinSpec{{LeftRel: "void", LeftAttr: "a", RightRel: "other", RightAttr: "k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	b := Bindings{Selectivities: map[string]float64{"v": 0.5}, MemoryPages: 64}
	act, err := mod.Activate(b)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(1); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), act, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("join with empty relation returned %d rows", len(res.Rows))
	}
}

// TestSingleRowRelations exercises the minimum non-trivial cardinality.
func TestSingleRowRelations(t *testing.T) {
	sys := New()
	sys.MustCreateRelation("one", 1, 512, Attr{Name: "k", DomainSize: 1, BTree: true})
	sys.MustCreateRelation("two", 1, 512, Attr{Name: "k", DomainSize: 1, BTree: true})
	q, err := sys.BuildQuery(QuerySpec{
		Relations: []RelSpec{{Name: "one"}, {Name: "two"}},
		Joins:     []JoinSpec{{LeftRel: "one", LeftAttr: "k", RightRel: "two", RightAttr: "k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	static, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.Insert("one", []int64{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("two", []int64{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), static, Bindings{MemoryPages: 64}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("1x1 join returned %d rows", len(res.Rows))
	}
}

// TestExtremeSelectivities pushes the boundary bindings 0 and 1 through
// activation and execution.
func TestExtremeSelectivities(t *testing.T) {
	sys := New()
	sys.MustCreateRelation("r", 400, 512, Attr{Name: "a", DomainSize: 400, BTree: true})
	q, err := sys.BuildQuery(QuerySpec{
		Relations: []RelSpec{{Name: "r", Pred: &Pred{Attr: "a", Variable: "v"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(2); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	for _, sel := range []float64{0, 1} {
		b := Bindings{Selectivities: map[string]float64{"v": sel}, MemoryPages: 64}
		act, err := mod.Activate(b)
		if err != nil {
			t.Fatalf("sel=%g: %v", sel, err)
		}
		res, err := db.Exec(context.Background(), act, b, ExecOptions{})
		if err != nil {
			t.Fatalf("sel=%g: %v", sel, err)
		}
		switch sel {
		case 0:
			if len(res.Rows) != 0 {
				t.Errorf("selectivity 0 returned %d rows", len(res.Rows))
			}
		case 1:
			if len(res.Rows) != 400 {
				t.Errorf("selectivity 1 returned %d rows, want 400", len(res.Rows))
			}
		}
	}
}

// TestExtremeMemory activates with the smallest plausible memory.
func TestExtremeMemory(t *testing.T) {
	sys := New()
	sys.MustCreateRelation("big1", 1000, 512,
		Attr{Name: "k", DomainSize: 300, BTree: true},
		Attr{Name: "a", DomainSize: 1000, BTree: true},
	)
	sys.MustCreateRelation("big2", 1000, 512,
		Attr{Name: "k", DomainSize: 300, BTree: true},
	)
	q, err := sys.BuildQuery(QuerySpec{
		Relations: []RelSpec{{Name: "big1", Pred: &Pred{Attr: "a", Variable: "v"}}, {Name: "big2"}},
		Joins:     []JoinSpec{{LeftRel: "big1", LeftAttr: "k", RightRel: "big2", RightAttr: "k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(3); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	rowsAt := map[float64]int{}
	for _, mem := range []float64{1, 16, 112, 100000} {
		b := Bindings{Selectivities: map[string]float64{"v": 0.9}, MemoryPages: mem}
		act, err := mod.Activate(b)
		if err != nil {
			t.Fatalf("mem=%g: %v", mem, err)
		}
		res, err := db.Exec(context.Background(), act, b, ExecOptions{})
		if err != nil {
			t.Fatalf("mem=%g: %v", mem, err)
		}
		rowsAt[mem] = len(res.Rows)
	}
	for mem, n := range rowsAt {
		if n != rowsAt[1] {
			t.Errorf("row count varies with memory: %d at mem=1 vs %d at mem=%g", rowsAt[1], n, mem)
		}
	}
}

// TestTenWayJoinEndToEnd runs the paper's most complex query through the
// whole stack once, including execution.
func TestTenWayJoinEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	sys := New()
	for i := 1; i <= 10; i++ {
		sys.MustCreateRelation(nameR(i), 120+i*13, 512,
			Attr{Name: "a", DomainSize: 100 + i*11, BTree: true},
			Attr{Name: "jl", DomainSize: 60 + i*7, BTree: true},
			Attr{Name: "jh", DomainSize: 70 + i*5, BTree: true},
		)
	}
	spec := QuerySpec{}
	for i := 1; i <= 10; i++ {
		spec.Relations = append(spec.Relations, RelSpec{
			Name: nameR(i), Pred: &Pred{Attr: "a", Variable: nameV(i)},
		})
	}
	for i := 1; i < 10; i++ {
		spec.Joins = append(spec.Joins, JoinSpec{
			LeftRel: nameR(i), LeftAttr: "jh", RightRel: nameR(i + 1), RightAttr: "jl",
		})
	}
	q, err := sys.BuildQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ChoosePlanCount() == 0 {
		t.Fatal("ten-way dynamic plan has no choose-plans")
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	// Round trip the largest module through bytes.
	loaded, err := sys.LoadModule(mod.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	b := Bindings{Selectivities: map[string]float64{}, MemoryPages: 48}
	for i := 1; i <= 10; i++ {
		b.Selectivities[nameV(i)] = 0.6
	}
	act, err := loaded.Activate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(act.Explain(), "Join") {
		t.Error("ten-way chosen plan has no joins")
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(4); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(context.Background(), act, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 30 {
		t.Errorf("ten-way join schema has %d columns, want 30", len(res.Columns))
	}
}

func nameR(i int) string { return "T" + string(rune('A'+i-1)) }
func nameV(i int) string { return "v" + string(rune('A'+i-1)) }
