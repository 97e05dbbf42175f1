package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dynplan"
)

// preparedGen is the generated input of a prepared-statement workload:
// the statement texts and each client's request sequence.
type preparedGen struct {
	SQL  []string
	Seqs [][]call
}

// The prepared-point catalog: six 3000–4250-row relations, so that a
// 0.5–10% selection reads tens to a few hundred rows through a B-tree.
var pointRels = func() []relSpec {
	var rels []relSpec
	for i := 1; i <= 6; i++ {
		card := 3000 + 250*(i-1)
		rels = append(rels, relSpec{name: fmt.Sprintf("P%d", i), card: card, aDom: card, joinDom: card / 2})
	}
	return rels
}()

// pointShapes are the eight prepared-point statements as (first
// relation, chain length): two one-relation selections, three
// two-relation and three three-relation chains. They are the same for
// every seed, so that the mix of one-, two- and three-relation work, and
// with it the throughput, does not depend on the seed.
var pointShapes = [][2]int{{0, 1}, {3, 1}, {1, 2}, {2, 2}, {4, 2}, {0, 3}, {2, 3}, {3, 3}}

const (
	pointClients = 1
	pointSeqLen  = 512
)

// strata returns n draws from [0, 1), one from each of n equal slices,
// in random order: a stratified sample, whose distribution — and so the
// mean cost of the requests built from it — barely depends on the seed.
func strata(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	for k, p := range rng.Perm(n) {
		f[k] = (float64(p) + rng.Float64()) / float64(n)
	}
	return f
}

// genPoint generates the prepared-point workload: the eight chain
// statements with a host variable on every relation, and per client a
// sequence that rotates through them with selective bindings
// (selectivity 0.005–0.1 per variable) and 16–128 pages of memory, each
// stratified over the client's requests.
func genPoint(seed int64) preparedGen {
	rng := rand.New(rand.NewSource(seed))
	var g preparedGen
	for _, s := range pointShapes {
		var rels []string
		var preds []chainPred
		for i := s[0]; i < s[0]+s[1]; i++ {
			rels = append(rels, pointRels[i].name)
			preds = append(preds, chainPred{Var: fmt.Sprintf("v%d", i+1)})
		}
		g.SQL = append(g.SQL, chainSQL(rels, preds, "", ""))
	}
	for c := 0; c < pointClients; c++ {
		mem := strata(rng, pointSeqLen)
		sels := make([][]float64, len(pointRels))
		for i := range sels {
			sels[i] = strata(rng, pointSeqLen)
		}
		order := rng.Perm(pointSeqLen)
		seq := make([]call, pointSeqLen)
		for i := range seq {
			k := order[i]
			st := k % len(pointShapes)
			b := dynplan.Bindings{Selectivities: map[string]float64{}, MemoryPages: float64(16 + int(113*mem[k]))}
			for j := pointShapes[st][0]; j < pointShapes[st][0]+pointShapes[st][1]; j++ {
				b.Selectivities[fmt.Sprintf("v%d", j+1)] = 0.005 + 0.095*sels[j][k]
			}
			seq[i] = call{Stmt: st, B: b}
		}
		g.Seqs = append(g.Seqs, seq)
	}
	return g
}

// pointGovernor is the governor the two tenants share: the pool covers
// the largest request of each tenant at once, so no grant is refused.
var pointGovernor = dynplan.GovernorConfig{
	TotalPages:    256,
	MinGrantPages: 16,
	MaxConcurrent: 4,
	TenantSlots:   2,
	TenantPages:   192,
}

// preparedInstance runs prepared statements: each request is one
// PreparedQuery.Exec under the workload's options, the statements having
// been prepared during set-up. prepared-point and scan-join share it.
type preparedInstance struct {
	sys     *dynplan.System
	db      *dynplan.Database
	params  dynplan.Params
	queries []*dynplan.Query
	stmts   []*dynplan.PreparedQuery
	seqs    [][]call
	refs    [][]answer
	// opts returns the Exec options of a client's i-th request.
	opts func(i int, q *dynplan.Query) dynplan.ExecOptions
}

func (w *preparedInstance) clients() int                  { return len(w.seqs) }
func (w *preparedInstance) meter() meter                  { return selfMeter{} }
func (w *preparedInstance) retainedHeap() (uint64, error) { return liveHeap() }

// prepareAll parses and prepares the statements: the compile-once half
// of the embedded-query scenario, paid during set-up.
func (w *preparedInstance) prepareAll(sqls []string) error {
	for _, text := range sqls {
		q, err := w.sys.Parse(text)
		if err != nil {
			return fmt.Errorf("parse %q: %w", text, err)
		}
		p, err := w.db.Prepare(q)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", text, err)
		}
		w.queries = append(w.queries, q)
		w.stmts = append(w.stmts, p)
	}
	return nil
}

func (w *preparedInstance) reference() error {
	var err error
	w.refs, err = probeSource{sys: w.sys, db: w.db, queries: w.queries}.answers(w.seqs)
	return err
}

func (w *preparedInstance) do(c, i int, acc *layerAcc, rec *recorder) outcome {
	k := i % len(w.seqs[c])
	r := w.seqs[c][k]
	o := w.opts(i, w.queries[r.Stmt])
	o.Trace = rec != nil
	rec.begin()
	sp := rec.open("Exec", -1)
	t0 := time.Now()
	res, err := w.stmts[r.Stmt].Exec(context.Background(), r.B, o)
	lat := time.Since(t0)
	rec.close(sp)
	if err != nil {
		acc.fail(err)
		return outcome{lat: lat, err: err}
	}
	rec.graft(sp, res.Trace)
	acc.observe(res, w.params)
	return outcome{lat: lat, wrong: digestRows(res.Columns, res.Rows) != w.refs[c][k]}
}

func (w *preparedInstance) probes() []probe {
	return probeSource{sys: w.sys, db: w.db, queries: w.queries}.probes(w.seqs[0])
}

func (w *preparedInstance) cacheStats() (dynplan.PlanCacheStats, error) {
	return w.db.PlanCacheStats(), nil
}

func (w *preparedInstance) books() (float64, error)      { return governorBooks(w.db) }
func (w *preparedInstance) window(bool) error            { return nil }
func (w *preparedInstance) serverTraces(*recorder) error { return nil }
func (w *preparedInstance) close()                       {}

// setupPoint builds the prepared-point system under test: catalog, data
// and indexes, the governor, and the eight prepared statements.
func setupPoint(seed int64) (instance, error) {
	g := genPoint(seed)
	sys := dynplan.New()
	createRelations(sys, pointRels, 256)
	db := sys.OpenDatabase()
	if err := db.GenerateData(seed); err != nil {
		return nil, err
	}
	if err := db.BuildIndexes(); err != nil {
		return nil, err
	}
	db.SetGovernor(pointGovernor)
	w := &preparedInstance{sys: sys, db: db, params: dynplan.DefaultParams(), seqs: g.Seqs,
		opts: func(i int, _ *dynplan.Query) dynplan.ExecOptions {
			return dynplan.ExecOptions{Governed: true, Resilient: true, Tenant: tenants[i%2]}
		}}
	if err := w.prepareAll(g.SQL); err != nil {
		return nil, err
	}
	return w, nil
}
