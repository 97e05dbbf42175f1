package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"dynplan"
	"dynplan/internal/workload"
)

// adhocCatalogSeed fixes the §6 ten-relation catalog's statistics (the
// seed the repository's experiments use); --seed varies the data, the
// statement population and the bindings, not the schema.
const adhocCatalogSeed = 11

const (
	adhocClients    = 1
	adhocPopulation = 256 // four times the default plan-cache capacity of 64
	adhocCacheFill  = 64
	adhocVariants   = 4 // binding sets per statement
	adhocSeqLen     = 2048
	// Statement r is drawn with probability proportional to
	// (adhocZipfV + r)^-adhocZipfS: the 64 most popular statements
	// take about two thirds of the requests, so the cache can keep the
	// head warm while the tail keeps missing.
	adhocZipfS = 1.2
	adhocZipfV = 16
	// adhocAnalyzeEvery is K: every K-th request (counted across all
	// clients) is followed by an Analyze, which bumps the catalog version
	// and so invalidates every cached plan.
	adhocAnalyzeEvery = 400
	adhocBuckets      = 16
)

// adhocGen is the generated input of adhoc-churn: the statement
// population in popularity order, adhocVariants binding sets per
// statement, and each client's sequence of (statement, variant) draws.
type adhocGen struct {
	SQL      []string
	Bindings [][]dynplan.Bindings
	Seqs     [][][2]int
}

// genAdhoc generates adhoc-churn. Statement r (its popularity rank) is a
// chain of 2 + r mod 5 relations of the §6 catalog; its offset, which of
// its relations are filtered by a host variable rather than a literal,
// and whether it is ordered (one statement in eight) follow from r as
// well. Fixing the shapes by rank keeps the compile and execution cost
// of the popular statements the same for every seed; the seed draws the
// literal values, the bindings, the data and the request sequence.
// Requests pick statements by a Zipf law over the ranks.
func genAdhoc(seed int64) adhocGen {
	rng := rand.New(rand.NewSource(seed))
	cat := workload.New(adhocCatalogSeed).Catalog
	var g adhocGen
	seen := map[string]bool{}
	for attempt := 0; len(g.SQL) < adhocPopulation; attempt++ {
		n := 2 + len(g.SQL)%5
		start := 1 + (attempt*3)%(workload.MaxRelations-n+1)
		mask := uint64(attempt) * 0x9e3779b97f4a7c15 >> 40
		var rels []string
		var preds []chainPred
		var vars []string
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("R%d", start+j)
			rels = append(rels, name)
			if mask>>j&1 == 1 {
				v := fmt.Sprintf("v%d", start+j)
				preds = append(preds, chainPred{Var: v})
				vars = append(vars, v)
				continue
			}
			dom := cat.MustRelation(name).MustAttribute("a").DomainSize
			preds = append(preds, chainPred{Lit: 1 + int(uniform(rng, 0.02, 0.3)*float64(dom))})
		}
		order := ""
		if attempt%8 == 3 {
			order = rels[(attempt/8)%n] + ".jh"
		}
		text := chainSQL(rels, preds, "", order)
		if seen[text] {
			continue
		}
		seen[text] = true
		g.SQL = append(g.SQL, text)
		var variants []dynplan.Bindings
		for k := 0; k < adhocVariants; k++ {
			b := dynplan.Bindings{Selectivities: map[string]float64{}, MemoryPages: float64(32 + rng.Intn(97))}
			for _, v := range vars {
				b.Selectivities[v] = uniform(rng, 0.02, 0.3)
			}
			variants = append(variants, b)
		}
		g.Bindings = append(g.Bindings, variants)
	}
	zipf := rand.NewZipf(rng, adhocZipfS, adhocZipfV, adhocPopulation-1)
	for c := 0; c < adhocClients; c++ {
		seq := make([][2]int, adhocSeqLen)
		for i := range seq {
			seq[i] = [2]int{int(zipf.Uint64()), rng.Intn(adhocVariants)}
		}
		g.Seqs = append(g.Seqs, seq)
	}
	return g
}

// adhocInstance sends fresh statement text on every request: Parse, then
// Prepare (a plan-cache hit or a full compile), then a governed Exec.
type adhocInstance struct {
	g      adhocGen
	sys    *dynplan.System
	db     *dynplan.Database
	params dynplan.Params
	refs   map[[2]int]answer
	count  atomic.Int64
}

// setupAdhoc builds the §6 catalog, loads and indexes its data, installs
// the governor and analyzes once, so that every Analyze in the run is a
// refresh.
func setupAdhoc(seed int64) (instance, error) {
	g := genAdhoc(seed)
	sys := dynplan.New()
	for _, r := range workload.New(adhocCatalogSeed).Catalog.Relations() {
		var attrs []dynplan.Attr
		for _, a := range r.Attrs {
			attrs = append(attrs, dynplan.Attr{Name: a.Name, DomainSize: a.DomainSize, BTree: a.BTree})
		}
		sys.MustCreateRelation(r.Name, r.Cardinality, r.RecordBytes, attrs...)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(seed); err != nil {
		return nil, err
	}
	if err := db.BuildIndexes(); err != nil {
		return nil, err
	}
	if err := db.Analyze(adhocBuckets); err != nil {
		return nil, err
	}
	db.SetGovernor(pointGovernor)
	return &adhocInstance{g: g, sys: sys, db: db, params: dynplan.DefaultParams()}, nil
}

func (w *adhocInstance) clients() int { return adhocClients }
func (w *adhocInstance) meter() meter { return selfMeter{} }

// retainedHeap first brings the plan cache to a fixed state — an Analyze
// empties it, then preparing the capacity's worth of most popular
// statements fills it — because at the end of a window it holds however
// many plans were compiled since the last Analyze.
func (w *adhocInstance) retainedHeap() (uint64, error) {
	if err := w.db.Analyze(adhocBuckets); err != nil {
		return 0, err
	}
	for _, text := range w.g.SQL[:adhocCacheFill] {
		q, err := w.sys.Parse(text)
		if err != nil {
			return 0, err
		}
		if _, err := w.db.Prepare(q); err != nil {
			return 0, err
		}
	}
	return liveHeap()
}

func (w *adhocInstance) reference() error {
	w.refs = map[[2]int]answer{}
	for _, seq := range w.g.Seqs {
		for _, k := range seq {
			if _, ok := w.refs[k]; ok {
				continue
			}
			q, err := w.sys.Parse(w.g.SQL[k[0]])
			if err != nil {
				return fmt.Errorf("parse %q: %w", w.g.SQL[k[0]], err)
			}
			a, err := referenceAnswer(w.sys, w.db, q, w.g.Bindings[k[0]][k[1]])
			if err != nil {
				return err
			}
			w.refs[k] = a
		}
	}
	return nil
}

func (w *adhocInstance) do(c, i int, acc *layerAcc, rec *recorder) outcome {
	k := w.g.Seqs[c][i%adhocSeqLen]
	b := w.g.Bindings[k[0]][k[1]]
	rec.begin()
	t0 := time.Now()
	sp := rec.open("Parse", -1)
	q, err := w.sys.Parse(w.g.SQL[k[0]])
	rec.close(sp)
	if err != nil {
		return outcome{lat: time.Since(t0), err: err}
	}
	sp = rec.open("Prepare", -1)
	var misses uint64
	if rec != nil {
		misses = w.db.PlanCacheStats().Misses
	}
	p, err := w.db.Prepare(q)
	rec.close(sp)
	if err != nil {
		return outcome{lat: time.Since(t0), err: err}
	}
	if rec != nil {
		// A Prepare that moved the cache's miss counter compiled. (With
		// more than one client, another client's miss could land inside
		// this call too.)
		if w.db.PlanCacheStats().Misses != misses {
			rec.rename(sp, "Prepare.miss")
		} else {
			rec.rename(sp, "Prepare.hit")
		}
	}
	sp = rec.open("Exec", -1)
	res, err := p.Exec(context.Background(), b, dynplan.ExecOptions{Governed: true, Trace: rec != nil})
	rec.close(sp)
	lat := time.Since(t0)
	if err != nil {
		acc.fail(err)
		return outcome{lat: lat, err: err}
	}
	rec.graft(sp, res.Trace)
	acc.observe(res, w.params)
	o := outcome{lat: lat, wrong: digestRows(res.Columns, res.Rows) != w.refs[k]}
	if w.count.Add(1)%adhocAnalyzeEvery == 0 {
		rec.begin()
		sp := rec.open("Analyze", -1)
		t := time.Now()
		if err := w.db.Analyze(adhocBuckets); err != nil {
			o.err = fmt.Errorf("analyze: %w", err)
		}
		if acc != nil {
			acc.analyzeMS = append(acc.analyzeMS, float64(time.Since(t).Nanoseconds())/1e6)
		}
		rec.close(sp)
	}
	return o
}

// probes takes one statement of each chain length from the popular end.
func (w *adhocInstance) probes() []probe {
	var ps []probe
	for r := 0; r < 5; r++ {
		q, err := w.sys.Parse(w.g.SQL[r])
		if err != nil {
			continue
		}
		ps = append(ps, probe{sys: w.sys, db: w.db, q: q, b: w.g.Bindings[r][0]})
	}
	return ps
}

func (w *adhocInstance) cacheStats() (dynplan.PlanCacheStats, error) {
	return w.db.PlanCacheStats(), nil
}

func (w *adhocInstance) books() (float64, error)      { return governorBooks(w.db) }
func (w *adhocInstance) window(bool) error            { return nil }
func (w *adhocInstance) serverTraces(*recorder) error { return nil }
func (w *adhocInstance) close()                       {}
