package main

import (
	"reflect"
	"testing"

	"dynplan"
)

// Generated inputs depend on the seed alone: the same seed gives the
// same statements, bindings and request sequences; another seed gives
// other ones.
func TestGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func(int64) any{
		"prepared-point": func(s int64) any { return genPoint(s) },
		"scan-join":      func(s int64) any { return genScanJoin(s) },
		"adhoc-churn":    func(s int64) any { return genAdhoc(s) },
		"http-query":     func(s int64) any { return genHTTP(s) },
	}
	if len(gens) != len(workloads) {
		t.Fatalf("%d generators tested, %d workloads registered", len(gens), len(workloads))
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same input", name)
		}
	}
}

func TestPointBindingsInRange(t *testing.T) {
	g := genPoint(3)
	if len(g.SQL) != len(pointShapes) || len(g.Seqs) != pointClients {
		t.Fatalf("%d statements, %d clients", len(g.SQL), len(g.Seqs))
	}
	for _, seq := range g.Seqs {
		for _, c := range seq {
			if c.B.MemoryPages < 16 || c.B.MemoryPages > 128 {
				t.Fatalf("memory %g outside 16–128 pages", c.B.MemoryPages)
			}
			if len(c.B.Selectivities) != pointShapes[c.Stmt][1] {
				t.Fatalf("statement %d bound %d variables", c.Stmt, len(c.B.Selectivities))
			}
			for _, s := range c.B.Selectivities {
				if s < 0.005 || s > 0.1 {
					t.Fatalf("selectivity %g outside 0.005–0.1", s)
				}
			}
		}
	}
}

func TestScanJoinBindingsInRange(t *testing.T) {
	for _, c := range genScanJoin(3).Seqs[0] {
		if c.B.MemoryPages < 32 || c.B.MemoryPages > 256 {
			t.Fatalf("memory %g outside 32–256 pages", c.B.MemoryPages)
		}
		for _, s := range c.B.Selectivities {
			if s < 0.2 || s > 0.9 {
				t.Fatalf("selectivity %g outside 0.2–0.9", s)
			}
		}
	}
}

// The adhoc-churn population is several times the plan cache, every
// statement parses against the §6 catalog, and every host variable a
// statement names is bound in each of its variants.
func TestAdhocPopulation(t *testing.T) {
	g := genAdhoc(5)
	if len(g.SQL) != adhocPopulation || adhocPopulation < 4*64 {
		t.Fatalf("population %d, want %d ≥ 4 × cache capacity", len(g.SQL), adhocPopulation)
	}
	w, err := setupAdhoc(5)
	if err != nil {
		t.Fatal(err)
	}
	sys := w.(*adhocInstance).sys
	seen := map[string]bool{}
	for r, text := range g.SQL {
		if seen[text] {
			t.Fatalf("statement %d repeats %q", r, text)
		}
		seen[text] = true
		q, err := sys.Parse(text)
		if err != nil {
			t.Fatalf("statement %d %q: %v", r, text, err)
		}
		if n := len(q.Logical().Rels); n != 2+r%5 {
			t.Fatalf("statement %d has %d relations, want %d", r, n, 2+r%5)
		}
		for _, b := range g.Bindings[r] {
			for _, v := range q.Variables() {
				if _, ok := b.Selectivities[v]; !ok {
					t.Fatalf("statement %d: variable %s unbound", r, v)
				}
			}
		}
	}
	// Zipf popularity: the head of the population is drawn far more
	// often than the tail.
	counts := make([]int, adhocPopulation)
	for _, seq := range g.Seqs {
		for _, k := range seq {
			counts[k[0]]++
		}
	}
	head, tail := 0, 0
	for r, n := range counts {
		if r < 64 {
			head += n
		} else {
			tail += n
		}
	}
	if head < 2*tail/3 || tail == 0 {
		t.Errorf("head %d vs tail %d requests: popularity not skewed as intended", head, tail)
	}
}

func TestHTTPStatementsParse(t *testing.T) {
	sys := dynplan.New()
	var rels []relSpec
	for _, n := range []string{"E1", "E2", "E3"} {
		rels = append(rels, relSpec{name: n, card: 400, aDom: 400, joinDom: 80})
	}
	createRelations(sys, rels, 512)
	for _, text := range httpStatements {
		if _, err := sys.Parse(text); err != nil {
			t.Errorf("%q: %v", text, err)
		}
	}
}
