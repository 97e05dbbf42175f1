// Command perfbench is the repository's wall-clock benchmark. It builds
// one of four workloads from a seed, drives it closed-loop for a fixed
// time, checks every answer against an independently computed
// reference, and prints every metric by name with its unit; the last
// line of its output is one JSON object. See README.md for the
// workloads, the metrics and the layers each metric covers.
//
// Usage:
//
//	perfbench --workload prepared-point --seed 1 --seconds 10 --trace 0 [--obsd path] [--out dir]
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs an untraced and a traced window back to back,
// reports the per-layer metrics of the traced window and the tracing
// overhead, and writes the spans to the --out directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"dynplan"
)

// instance is one workload's system under test, built by set-up.
type instance interface {
	// clients is the number of closed-loop clients.
	clients() int
	// meter reads the resources of the process that runs the system.
	meter() meter
	// retainedHeap returns the live heap of the process that runs the
	// system, in bytes, after a forced collection.
	retainedHeap() (uint64, error)
	// reference computes the oracle answer of every generated request.
	reference() error
	// do runs client c's i-th request; acc and rec belong to client c,
	// and rec is nil outside the traced window.
	do(c, i int, acc *layerAcc, rec *recorder) outcome
	// probes lists the queries the traced run's layer probes use.
	probes() []probe
	// window prepares the next measurement window, traced or not.
	window(traced bool) error
	// serverTraces adds span trees the system recorded out of process.
	serverTraces(rec *recorder) error
	// cacheStats returns the plan cache's cumulative counters.
	cacheStats() (dynplan.PlanCacheStats, error)
	// books returns the memory-grant pages still outstanding once all
	// clients have returned; it fails when the system's own books do not
	// balance.
	books() (float64, error)
	// close stops everything the instance started.
	close()
}

// workloads maps each workload name to its set-up function.
var workloads = map[string]func(seed int64, obsd string) (instance, error){
	"prepared-point": func(seed int64, _ string) (instance, error) { return setupPoint(seed) },
	"scan-join":      func(seed int64, _ string) (instance, error) { return setupScanJoin(seed) },
	"adhoc-churn":    func(seed int64, _ string) (instance, error) { return setupAdhoc(seed) },
	"http-query":     setupHTTP,
}

// setupReps is how many times set-up runs per invocation; setup_s is the
// median, and the last instance built is the one measured.
const setupReps = 7

// warmup is the untimed closed-loop run before the first window: plan
// caches, connection pools and lazily built state settle first.
const warmup = time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: prepared-point, scan-join, adhoc-churn or http-query")
	seed := flag.Int64("seed", 1, "seed the workload's data, statements and bindings are generated from")
	seconds := flag.Int("seconds", 10, "length of one measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced window and reports per-layer metrics")
	obsd := flag.String("obsd", "", "path to the built cmd/obsd binary (http-query)")
	out := flag.String("out", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	setup, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	if err := rotor.start(); err != nil {
		// The run stays valid, only noisier; the host line shows
		// rotated-cpus=[].
		fmt.Printf("not pinned to one CPU: %v\n", err)
	}
	res, err := run(*workload, setup, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *obsd, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one invocation and returns its result line.
func run(name string, setup func(int64, string) (instance, error), seed int64, d time.Duration, traced bool, obsd, out string) (*result, error) {
	fmt.Printf("perfbench workload=%s seed=%d held-out-seed=%d seconds=%g trace=%t\n", name, seed, heldOutSeed, d.Seconds(), traced)
	goroutines := runtime.NumGoroutine()

	var inst instance
	var setupS []float64
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			inst.close()
			// Set-ups take the CPUs in turn, as a window's parts do.
			if err := rotor.step(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(seed, obsd); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()
	fmt.Printf("host %s\n", fingerprint())
	if err := inst.reference(); err != nil {
		return nil, err
	}

	n := inst.clients()
	next := make([]int, n)
	do := func(accs []*layerAcc, recs []*recorder) func(c, i int) outcome {
		return func(c, i int) outcome { return inst.do(c, i, accs[c], recs[c]) }
	}
	// Untraced windows record no per-layer accounts and no spans.
	untraced := do(make([]*layerAcc, n), make([]*recorder, n))
	if err := inst.window(false); err != nil {
		return nil, err
	}
	if _, err := drive(n, warmup, next, inst.meter(), untraced); err != nil {
		return nil, err
	}

	// A traced run splits its time between an untraced and a traced
	// window, so that it takes no longer than an untraced run.
	win := d
	if traced {
		win = d / 2
	}
	plain, err := drive(n, win, next, inst.meter(), untraced)
	if err != nil {
		return nil, err
	}
	report("untraced", plain)
	res := &result{Correct: plain.wrong == 0, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}

	if !traced {
		heap, err := inst.retainedHeap()
		if err != nil {
			return nil, err
		}
		m := endToEnd(plain, heap, median(setupS))
		printMetrics(m)
		fmt.Printf("error_rate %.6f ratio (failed %d of %d attempted)\n", ratio(float64(plain.failed), float64(plain.attempted)), plain.failed, plain.attempted)
		res.Metrics = m
	} else {
		epoch := time.Now()
		recs := make([]*recorder, n)
		for c := range recs {
			recs[c] = &recorder{epoch: epoch, client: c}
		}
		if err := inst.window(true); err != nil {
			return nil, err
		}
		// The traced window continues from the untraced one's cache
		// state; its own warm-up refills anything the restart dropped.
		if _, err := drive(n, warmup, next, inst.meter(), untraced); err != nil {
			return nil, err
		}
		cache0, err := inst.cacheStats()
		if err != nil {
			return nil, err
		}
		accs := make([]*layerAcc, n)
		for c := range accs {
			accs[c] = &layerAcc{}
		}
		tw, err := drive(n, win, next, inst.meter(), do(accs, recs))
		if err != nil {
			return nil, err
		}
		cache1, err := inst.cacheStats()
		if err != nil {
			return nil, err
		}
		report("traced", tw)
		server := &recorder{epoch: epoch, client: -1}
		if err := inst.serverTraces(server); err != nil {
			return nil, err
		}
		probeRec := &recorder{epoch: epoch, client: -2}
		pa := &probeAcc{}
		if err := runProbes(inst.probes(), probeRec, pa, d/10); err != nil {
			return nil, err
		}
		all := []*recorder{server, probeRec}
		all = append(all, recs...)
		var reqs []request
		for _, r := range all {
			reqs = append(reqs, r.reqs...)
		}
		if err := writeSpans(out, name, seed, reqs); err != nil {
			return nil, err
		}
		m := perLayer(tw, merge(accs), collectSpans(reqs), pa, cache1, cache0)
		addOverhead(m, plain, tw)
		res.Correct = res.Correct && tw.wrong == 0
		res.Attempted += tw.attempted
		res.Failed += tw.failed
		res.Metrics = m
		if tw.firstErr != nil {
			fmt.Printf("first failure in the traced window: %v\n", tw.firstErr)
		}
	}

	// Books: every grant returned, every goroutine the run started gone.
	pages, err := inst.books()
	if err != nil {
		return nil, err
	}
	inst.close()
	delta := settleGoroutines(goroutines)
	if traced {
		addBooks(res.Metrics, pages, delta)
		printMetrics(res.Metrics)
	}
	if pages != 0 || delta != 0 {
		fmt.Printf("books unbalanced: outstanding grant pages %g, goroutine delta %d\n", pages, delta)
		res.Correct = false
	}
	if plain.firstErr != nil {
		fmt.Printf("first failure: %v\n", plain.firstErr)
	}
	if !res.Correct {
		fmt.Println("wrong answers or unbalanced books: the run fails")
	}
	return res, nil
}

// settleGoroutines waits up to two seconds for the goroutine count to
// return to its baseline (idle HTTP connections and finished workers exit
// asynchronously) and returns what remains above it.
func settleGoroutines(baseline int) int {
	stop := time.Now().Add(2 * time.Second)
	for {
		d := runtime.NumGoroutine() - baseline
		if d <= 0 || time.Now().After(stop) {
			return d
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// addOverhead adds the tracing-overhead rows: throughput and CPU per
// request of the untraced and the traced window of one invocation, and
// their throughput ratio (above 1 when tracing slows the workload).
func addOverhead(m map[string]metric, plain, traced window) {
	m["trace.untraced_throughput_qps"] = metric{throughput(plain), "1/s"}
	m["trace.traced_throughput_qps"] = metric{throughput(traced), "1/s"}
	m["trace.untraced_cpu_ms_per_req"] = metric{cpuPerReq(plain), "ms"}
	m["trace.traced_cpu_ms_per_req"] = metric{cpuPerReq(traced), "ms"}
	m["trace.overhead_ratio"] = metric{ratio(throughput(plain), throughput(traced)), "ratio"}
}

// addBooks adds the end-of-run book checks; both must read 0.
func addBooks(m map[string]metric, pages float64, goroutines int) {
	m["governor.outstanding_pages_end"] = metric{pages, "count"}
	m["runtime.goroutines_delta"] = metric{float64(goroutines), "count"}
}

// throughput is the window's completion rate. Its parts alternate CPUs
// (rotor), so the whole window's rate averages over them; the median
// part would land on whichever CPU ran slower or faster at the edge.
func throughput(w window) float64 {
	return ratio(float64(w.attempted), w.elapsed.Seconds())
}

func cpuPerReq(w window) float64 {
	return ratio(float64(w.res.cpu)/1e6, float64(w.attempted))
}

// endToEnd assembles the end-to-end metrics of an untraced window.
func endToEnd(w window, heap uint64, setupS float64) map[string]metric {
	return map[string]metric{
		"throughput_qps":   {throughput(w), "1/s"},
		"latency_p50_ms":   {w.lat.p50, "ms"},
		"latency_p95_ms":   {w.lat.p95, "ms"},
		"success_ratio":    {1 - ratio(float64(w.failed), float64(w.attempted)), "ratio"},
		"cpu_ms_per_req":   {cpuPerReq(w), "ms"},
		"alloc_kb_per_req": {ratio(float64(w.res.alloc)/1024, float64(w.attempted)), "KB"},
		"retained_heap_mb": {float64(heap) / (1 << 20), "MB"},
		"setup_s":          {setupS, "s"},
	}
}

// report prints a window's sample counts, so every percentile is read
// with the number of observations behind it.
func report(label string, w window) {
	fmt.Printf("%s window: %.2fs, %d attempted, %d failed (%d wrong answers), latency samples %d (%d beyond p95, %d unsampled), throughput per part %.4g, CPU stolen by other guests %.1f%%\n",
		label, w.elapsed.Seconds(), w.attempted, w.failed, w.wrong, w.lat.samples, w.lat.beyond, w.lat.dropped, w.qpsSlices, 100*w.steal)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// writeSpans writes the traced run's spans as JSON lines, one request
// per line, overwriting the workload's previous file.
func writeSpans(dir, name string, seed int64, reqs []request) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/%s.ndjson", dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for id, r := range reqs {
		if err := enc.Encode(struct {
			Seed   int64  `json:"seed"`
			ID     int    `json:"id"`
			Client int    `json:"client"`
			Spans  []span `json:"spans"`
		}{seed, id, r.Client, r.Spans}); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d requests written to %s\n", len(reqs), path)
	return nil
}
