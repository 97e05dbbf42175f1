package main

import (
	"fmt"
	"math"
	"math/rand"

	"dynplan"
)

// The scan-join catalog: four 10^4-row relations. S2 really holds
// scanStale times its catalog cardinality and is never analyzed, so the
// cardinality guards on materializations over S2 trip.
var scanRels = []relSpec{
	{name: "S1", card: 10000, aDom: 10000, joinDom: 10000},
	{name: "S2", card: 10000, aDom: 10000, joinDom: 10000},
	{name: "S3", card: 10000, aDom: 10000, joinDom: 10000},
	{name: "S4", card: 10000, aDom: 10000, joinDom: 10000},
}

const (
	scanStale  = 4
	scanSeqLen = 48
)

// scanChains are the three prepared statements: 3- and 4-relation chains
// that all pass through the stale relation.
var scanChains = [][]int{{0, 1, 2}, {1, 2, 3}, {0, 1, 2, 3}}

// genScanJoin generates the scan-join workload: one client cycling
// through scanSeqLen requests, statements in rotation, unselective
// bindings (0.2–0.9) and 32–256 pages. A request's cost grows with the
// product of its selectivities, so each request binds its variables
// 0.05 below, at and above one selectivity level. The levels and the
// memory grants are each one draw per stratum, paired by the request's
// position; the pattern of which relation is the smallest input, and
// with how much memory — which decides whether a cardinality guard sits
// over the stale relation — is then the same for every seed, so the cost
// of the requests and the share that re-optimize barely depend on it.
// The seed draws the data and the values within each stratum.
func genScanJoin(seed int64) preparedGen {
	rng := rand.New(rand.NewSource(seed))
	var g preparedGen
	for _, chain := range scanChains {
		var rels []string
		var preds []chainPred
		for _, i := range chain {
			rels = append(rels, scanRels[i].name)
			preds = append(preds, chainPred{Var: fmt.Sprintf("v%d", i+1)})
		}
		g.SQL = append(g.SQL, chainSQL(rels, preds, "", ""))
	}
	level := spread(rng, scanSeqLen, 5)
	mem := spread(rng, scanSeqLen, 7)
	seq := make([]call, scanSeqLen)
	for k := range seq {
		st := k % len(scanChains)
		b := dynplan.Bindings{Selectivities: map[string]float64{}, MemoryPages: float64(32 + int(224*mem[k]))}
		for _, i := range scanChains[st] {
			s := 0.2 + 0.7*level[k] + 0.05*float64((i+k)%3-1)
			b.Selectivities[fmt.Sprintf("v%d", i+1)] = math.Min(0.9, math.Max(0.2, s))
		}
		seq[k] = call{Stmt: st, B: b}
	}
	g.Seqs = [][]call{seq}
	return g
}

// setupScanJoin builds the scan-join system under test: data, the stale
// relation's surplus rows, indexes and the three prepared statements.
func setupScanJoin(seed int64) (instance, error) {
	g := genScanJoin(seed)
	sys := dynplan.New()
	createRelations(sys, scanRels, 512)
	db := sys.OpenDatabase()
	if err := db.GenerateData(seed); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	stale := scanRels[1]
	rows := make([][]int64, (scanStale-1)*stale.card)
	for i := range rows {
		rows[i] = []int64{int64(rng.Intn(stale.aDom)), int64(rng.Intn(stale.joinDom)), int64(rng.Intn(stale.joinDom))}
	}
	if err := db.Insert(stale.name, rows...); err != nil {
		return nil, err
	}
	if err := db.BuildIndexes(); err != nil {
		return nil, err
	}
	w := &preparedInstance{sys: sys, db: db, params: dynplan.DefaultParams(), seqs: g.Seqs,
		opts: func(_ int, q *dynplan.Query) dynplan.ExecOptions {
			return dynplan.ExecOptions{Parallel: true, MaxDOP: 2, Reopt: &dynplan.ReoptPolicy{Query: q}}
		}}
	if err := w.prepareAll(g.SQL); err != nil {
		return nil, err
	}
	return w, nil
}

// spread returns n draws from [0, 1), one from each of n equal slices;
// request k draws from slice k·stride mod n (stride coprime to n), so
// that two spreads with different strides pair their slices the same
// way for every seed.
func spread(rng *rand.Rand, n, stride int) []float64 {
	f := make([]float64, n)
	for k := range f {
		f[k] = (float64(k*stride%n) + rng.Float64()) / float64(n)
	}
	return f
}
