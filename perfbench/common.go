package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dynplan"
)

// relSpec declares one relation of a chain catalog: attribute a carries
// the selection, jl and jh join the relation to its chain predecessor
// and successor; every attribute has a B-tree.
type relSpec struct {
	name                string
	card, aDom, joinDom int
}

func createRelations(sys *dynplan.System, rels []relSpec, recordBytes int) {
	for _, r := range rels {
		sys.MustCreateRelation(r.name, r.card, recordBytes,
			dynplan.Attr{Name: "a", DomainSize: r.aDom, BTree: true},
			dynplan.Attr{Name: "jl", DomainSize: r.joinDom, BTree: true},
			dynplan.Attr{Name: "jh", DomainSize: r.joinDom, BTree: true},
		)
	}
}

// chainPred is the selection on one relation of a generated chain: a
// host variable when Var is set, else the literal bound Lit.
type chainPred struct {
	Var string
	Lit int
}

// chainSQL renders the chain query over rels in the SQL-ish dialect
// System.Parse accepts: one predicate per relation on attribute a, join
// edges between neighbours (left.jh = right.jl), the projected columns
// (all when cols is empty), and an optional ORDER BY.
func chainSQL(rels []string, preds []chainPred, cols, orderBy string) string {
	var b strings.Builder
	if cols == "" {
		cols = "*"
	}
	fmt.Fprintf(&b, "SELECT %s FROM %s WHERE ", cols, strings.Join(rels, ", "))
	var conds []string
	for i, r := range rels {
		if p := preds[i]; p.Var != "" {
			conds = append(conds, fmt.Sprintf("%s.a <= ?%s", r, p.Var))
		} else {
			conds = append(conds, fmt.Sprintf("%s.a <= %d", r, p.Lit))
		}
	}
	for i := 0; i+1 < len(rels); i++ {
		conds = append(conds, fmt.Sprintf("%s.jh = %s.jl", rels[i], rels[i+1]))
	}
	b.WriteString(strings.Join(conds, " AND "))
	if orderBy != "" {
		b.WriteString(" ORDER BY " + orderBy)
	}
	return b.String()
}

// tenants are the two tenants the governed workloads' requests
// alternate between, so that the governor's per-tenant gates and quotas
// are on the measured path.
var tenants = [2]string{"tenant-a", "tenant-b"}

// uniform draws from [lo, hi).
func uniform(rng *rand.Rand, lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

// call is one generated request: a statement index and its bindings.
type call struct {
	Stmt int
	B    dynplan.Bindings
}

// referenceAnswer computes the oracle answer for a query under bindings
// by a path independent of the one under test: a static plan optimized
// for exactly these bindings (System.OptimizeAt), executed serially and
// ungoverned, with the query's projection applied.
func referenceAnswer(sys *dynplan.System, db *dynplan.Database, q *dynplan.Query, b dynplan.Bindings) (answer, error) {
	pl, err := sys.OptimizeAt(q, b)
	if err != nil {
		return answer{}, fmt.Errorf("reference plan: %w", err)
	}
	res, err := db.Exec(context.Background(), pl, b, dynplan.ExecOptions{})
	if err != nil {
		return answer{}, fmt.Errorf("reference execution: %w", err)
	}
	if proj := q.Projection(); len(proj) > 0 {
		if res, err = res.Project(proj); err != nil {
			return answer{}, err
		}
	}
	return digestRows(res.Columns, res.Rows), nil
}

// probe is one query the traced run's layer probes optimize, encode,
// activate and execute outside the measured windows.
type probe struct {
	sys *dynplan.System
	db  *dynplan.Database
	q   *dynplan.Query
	b   dynplan.Bindings
}

// probeSource is a system, its database and its statements: what the
// reference answers and the layer probes are computed on.
type probeSource struct {
	sys     *dynplan.System
	db      *dynplan.Database
	queries []*dynplan.Query
}

// answers computes the reference answer of every call of every
// client's sequence.
func (s probeSource) answers(seqs [][]call) ([][]answer, error) {
	refs := make([][]answer, len(seqs))
	for c, seq := range seqs {
		refs[c] = make([]answer, len(seq))
		for i, r := range seq {
			a, err := referenceAnswer(s.sys, s.db, s.queries[r.Stmt], r.B)
			if err != nil {
				return nil, err
			}
			refs[c][i] = a
		}
	}
	return refs, nil
}

// probes returns one probe per statement, with the bindings of the
// statement's first call.
func (s probeSource) probes(calls []call) []probe {
	var ps []probe
	for st, q := range s.queries {
		for _, c := range calls {
			if c.Stmt == st {
				ps = append(ps, probe{sys: s.sys, db: s.db, q: q, b: c.B})
				break
			}
		}
	}
	return ps
}

// runProbes measures the layers the workload reaches only inside opaque
// calls (Prepare compiles; Exec activates): for each probe query, the
// optimizer search, module encoding and activation are timed as the
// benchmark's own spans, and the governed pipeline's fixed cost is taken
// as the median difference between a governed and resilient Exec and a
// plain Exec of the same module under the same bindings. Each phase stops at its
// time budget.
func runProbes(probes []probe, rec *recorder, acc *probeAcc, budget time.Duration) error {
	if len(probes) == 0 {
		return nil
	}
	ctx := context.Background()
	mods := make([]*dynplan.Module, len(probes))
	stop := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(stop); round++ {
		for i, p := range probes {
			rec.begin()
			sp := rec.open("OptimizeDynamic", -1)
			dyn, err := p.sys.OptimizeDynamic(p.q, dynplan.Uncertainty{})
			rec.close(sp)
			if err != nil {
				return fmt.Errorf("probe optimize: %w", err)
			}
			st := dyn.Stats()
			acc.candidates = append(acc.candidates, float64(st.Candidates))
			acc.comparisons = append(acc.comparisons, float64(st.Comparisons))
			sp = rec.open("Module", -1)
			mod, err := dyn.Module()
			rec.close(sp)
			if err != nil {
				return fmt.Errorf("probe encode: %w", err)
			}
			mods[i] = mod
			sp = rec.open("Activate.probe", -1)
			act, err := mod.Activate(p.b)
			rec.close(sp)
			if err != nil {
				return fmt.Errorf("probe activate: %w", err)
			}
			acc.nodesEvaluated = append(acc.nodesEvaluated, float64(act.NodesEvaluated()))
			acc.decisions = append(acc.decisions, float64(act.Decisions()))
		}
	}
	// Paired differences on the same module and bindings, with the order
	// of each pair alternating, cancel the query's own cost and any
	// drift in machine speed.
	var diffs []float64
	stop = time.Now().Add(budget)
	for round := 0; time.Now().Before(stop); round++ {
		for i, p := range probes {
			var plain, full float64
			for k := 0; k < 2; k++ {
				governed := (k+round)%2 == 1
				o := dynplan.ExecOptions{}
				if governed {
					o = dynplan.ExecOptions{Governed: true, Resilient: true}
				}
				t0 := time.Now()
				if _, err := p.db.Exec(ctx, mods[i], p.b, o); err != nil {
					return fmt.Errorf("probe exec: %w", err)
				}
				if us := float64(time.Since(t0).Nanoseconds()) / 1e3; governed {
					full = us
				} else {
					plain = us
				}
			}
			diffs = append(diffs, full-plain)
		}
	}
	acc.governedOverheadUS = median(diffs)
	return nil
}

// probeAcc holds the probe measurements.
type probeAcc struct {
	candidates, comparisons, nodesEvaluated, decisions []float64
	governedOverheadUS                                 float64
}

// governorBooks checks that every admitted query released its ticket and
// returns the grant pages still outstanding.
func governorBooks(db *dynplan.Database) (float64, error) {
	st := db.GovernorStats()
	if st.Admitted != st.Completed || st.InFlight != 0 {
		return 0, fmt.Errorf("books do not balance: governor admitted %d, completed %d, in flight %d", st.Admitted, st.Completed, st.InFlight)
	}
	return db.OutstandingGrantPages(), nil
}
