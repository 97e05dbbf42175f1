package main

import (
	"errors"
	"strings"

	"dynplan"
)

// layerAcc accumulates one client's per-layer counts from the results it
// receives in the traced window. Each client owns one, so recording
// needs no lock; run merges them when the window ends.
type layerAcc struct {
	execs                                           int
	tupleOps, seqPages, randPages, pageWrites, rows float64
	simSeconds                                      float64
	governed, degraded, sheds                       int
	parallelAccounted, parallelRuns, dopSum         int
	maxSkew                                         []float64
	reoptTrips, replans, temps                      int
	analyzeMS                                       []float64
	serverMS, overheadUS                            []float64
	httpReplies, reused                             int
}

// observe adds one successful execution's account. Untraced windows
// pass a nil accumulator and record nothing, so that their heap does not
// grow with the window.
func (a *layerAcc) observe(res *dynplan.ExecResult, p dynplan.Params) {
	if a == nil {
		return
	}
	a.execs++
	a.tupleOps += float64(res.TupleOps)
	a.seqPages += float64(res.SeqPageReads)
	a.randPages += float64(res.RandPageReads)
	a.pageWrites += float64(res.PageWrites)
	a.rows += float64(len(res.Rows))
	a.simSeconds += res.SimulatedSeconds(p)
	if res.Admission != nil {
		a.governed++
		if res.Admission.Degraded {
			a.degraded++
		}
	}
	if par := res.Parallel; par != nil {
		a.parallelAccounted++
		a.dopSum += par.DOP
		if par.DOP > 1 {
			a.parallelRuns++
			a.maxSkew = append(a.maxSkew, par.MaxSkew())
		}
	}
	if ro := res.Reopt; ro != nil {
		a.reoptTrips += ro.Attempts
		a.temps += ro.TempsCreated
		if ro.Replanned {
			a.replans++
		}
	}
}

// fail records a failed request; an admission refusal is a shed.
func (a *layerAcc) fail(err error) {
	if a == nil {
		return
	}
	if errors.Is(err, dynplan.ErrAdmission) {
		a.sheds++
	}
}

// merge folds the clients' accumulators into one.
func merge(accs []*layerAcc) *layerAcc {
	m := &layerAcc{}
	for _, a := range accs {
		m.execs += a.execs
		m.tupleOps += a.tupleOps
		m.seqPages += a.seqPages
		m.randPages += a.randPages
		m.pageWrites += a.pageWrites
		m.rows += a.rows
		m.simSeconds += a.simSeconds
		m.governed += a.governed
		m.degraded += a.degraded
		m.sheds += a.sheds
		m.parallelAccounted += a.parallelAccounted
		m.parallelRuns += a.parallelRuns
		m.dopSum += a.dopSum
		m.maxSkew = append(m.maxSkew, a.maxSkew...)
		m.reoptTrips += a.reoptTrips
		m.replans += a.replans
		m.temps += a.temps
		m.analyzeMS = append(m.analyzeMS, a.analyzeMS...)
		m.serverMS = append(m.serverMS, a.serverMS...)
		m.overheadUS = append(m.overheadUS, a.overheadUS...)
		m.httpReplies += a.httpReplies
		m.reused += a.reused
	}
	return m
}

// spanSamples groups the traced window's spans into per-layer samples:
// durations of the benchmark's own spans around public calls, self
// times of the program's stage spans, and per-request sums of the
// program's attributed waits.
type spanSamples struct {
	dur   map[string][]float64 // benchmark span name → durations, µs
	self  map[string][]float64 // program stage name → self times, µs
	waits map[string][]float64 // wait kind → per-request totals, µs
	runNS int64                // total Run-stage wall time
}

// stageWaits maps each program wait kind to the span kind whose presence
// makes a request count toward that wait's percentile: a request that
// passed an admission stage without queueing waited 0, and that 0 is a
// sample.
var stageWaits = map[string]string{
	"admission-queue":  "Admit",
	"grant":            "Grant",
	"exchange-channel": "exchange",
	"replan-planning":  "replan",
}

func collectSpans(reqs []request) spanSamples {
	s := spanSamples{dur: map[string][]float64{}, self: map[string][]float64{}, waits: map[string][]float64{}}
	for _, r := range reqs {
		self := selfTimes(r.Spans)
		waits := map[string]float64{}
		has := map[string]bool{}
		for i, sp := range r.Spans {
			switch sp.Kind {
			case benchKind:
				s.dur[sp.Name] = append(s.dur[sp.Name], float64(sp.End-sp.Start)/1e3)
				continue
			case "stage":
				s.self[sp.Name] = append(s.self[sp.Name], float64(self[i])/1e3)
				has[sp.Name] = true
				if sp.Name == "Run" {
					s.runNS += sp.End - sp.Start
				}
			default:
				has[sp.Kind] = true
			}
			for k, ns := range sp.Waits {
				waits[k] += float64(ns) / 1e3
			}
		}
		for kind, on := range stageWaits {
			if has[on] {
				s.waits[kind] = append(s.waits[kind], waits[kind])
			}
		}
	}
	return s
}

// stages are the pipeline stages in canonical order; each gets a
// pipeline.<stage>_self_us_p50 metric.
var stages = []string{"Record", "Admit", "Grant", "Breaker", "Retry", "Degrade", "Reopt", "Activate", "Run"}

// perLayer assembles the per-layer metrics of a traced window.
func perLayer(w window, a *layerAcc, s spanSamples, p *probeAcc, cache, cache0 dynplan.PlanCacheStats) map[string]metric {
	reqs := float64(w.attempted)
	execs := float64(a.execs)
	us := func(v float64) metric { return metric{v, "us"} }
	ms := func(v float64) metric { return metric{v, "ms"} }
	count := func(v float64) metric { return metric{v, "count"} }
	share := func(v float64) metric { return metric{v, "ratio"} }
	hits := float64(cache.Hits - cache0.Hits)
	lookups := hits + float64(cache.Misses-cache0.Misses)
	m := map[string]metric{
		"sqlish.parse_us_p50": us(median(s.dur["Parse"])),

		"search.optimize_ms_p50":              ms(median(s.dur["OptimizeDynamic"]) / 1e3),
		"search.optimize_ms_p95":              ms(percentile(s.dur["OptimizeDynamic"], 95) / 1e3),
		"search.candidates_per_compile":       count(mean(p.candidates)),
		"search.comparisons_per_compile":      count(mean(p.comparisons)),
		"plan.encode_us_p50":                  us(median(s.dur["Module"])),
		"plan.activate_us_p50":                us(median(s.dur["Activate.probe"])),
		"plan.nodes_evaluated_per_activation": count(mean(p.nodesEvaluated)),
		"plan.decisions_per_activation":       count(mean(p.decisions)),
		"plan.sim_cost_s_per_req":             metric{ratio(a.simSeconds, execs), "s"},

		"plancache.hit_ratio":            share(ratio(hits, lookups)),
		"plancache.lookups":              count(lookups),
		"plancache.evictions_per_1k_req": count(ratio(1000*float64(cache.Evictions-cache0.Evictions), reqs)),
		"plancache.prepare_hit_us_p50":   us(median(s.dur["Prepare.hit"])),
		"plancache.prepare_miss_ms_p50":  ms(median(s.dur["Prepare.miss"]) / 1e3),

		"pipeline.governed_overhead_us": us(p.governedOverheadUS),

		"governor.admission_wait_us_p95": us(percentile(s.waits["admission-queue"], 95)),
		"governor.grant_wait_us_p95":     us(percentile(s.waits["grant"], 95)),
		"governor.degraded_grant_ratio":  share(ratio(float64(a.degraded), float64(a.governed))),
		"governor.shed_ratio":            share(ratio(float64(a.sheds), reqs)),

		"exec.rows_per_s":        metric{ratio(a.tupleOps, float64(s.runNS)/1e9), "1/s"},
		"exec.tuple_ops_per_req": count(ratio(a.tupleOps, execs)),

		"storage.seq_pages_per_req":    count(ratio(a.seqPages, execs)),
		"storage.rand_pages_per_req":   count(ratio(a.randPages, execs)),
		"storage.page_writes_per_req":  count(ratio(a.pageWrites, execs)),
		"storage.pages_per_result_row": count(ratio(a.seqPages+a.randPages+a.pageWrites, a.rows)),

		"exchange.parallel_share":      share(ratio(float64(a.parallelRuns), float64(a.parallelAccounted))),
		"exchange.dop_mean":            count(ratio(float64(a.dopSum), float64(a.parallelAccounted))),
		"exchange.channel_wait_ms_p50": ms(median(s.waits["exchange-channel"]) / 1e3),
		"exchange.max_skew_p50":        share(median(a.maxSkew)),

		"reopt.trips_per_req":   count(ratio(float64(a.reoptTrips), execs)),
		"reopt.replan_share":    share(ratio(float64(a.replans), execs)),
		"reopt.temps_per_req":   count(ratio(float64(a.temps), execs)),
		"reopt.planning_ms_p50": ms(median(s.waits["replan-planning"]) / 1e3),

		"analyze.ms_p50": ms(median(a.analyzeMS)),
		"analyze.calls":  count(float64(len(a.analyzeMS))),

		"obsd.server_ms_p50":         ms(median(a.serverMS)),
		"obsd.http_overhead_us_p50":  us(median(a.overheadUS)),
		"obsd.prepared_reused_ratio": share(ratio(float64(a.reused), float64(a.httpReplies))),

		"runtime.gc_cycles_per_1k_req": count(ratio(1000*float64(w.res.gcCycles), reqs)),
		"runtime.gc_pause_ms_total":    ms(float64(w.res.gcPause) / 1e6),
	}
	for _, st := range stages {
		m["pipeline."+strings.ToLower(st)+"_self_us_p50"] = us(median(s.self[st]))
	}
	return m
}
