package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynplan"
)

// The http-query workload drives the cmd/obsd daemon over HTTP. obsd's
// demo catalog is E1 ⋈ E2 ⋈ E3 (400 rows each, a/jl/jh domains 400/80/80)
// with E1 holding httpStale times its catalog cardinality.
const (
	httpClients = 1
	httpSeqLen  = 256
	httpStale   = 4
)

// httpStatements is the statement mix the clients post: one-, two- and
// three-relation chains, a literal predicate, an ORDER BY and a
// projection.
var httpStatements = func() []string {
	rels := []string{"E1", "E2", "E3"}
	vars := []chainPred{{Var: "v1"}, {Var: "v2"}, {Var: "v3"}}
	return []string{
		chainSQL(rels[:1], vars[:1], "", ""),
		chainSQL(rels[1:2], vars[1:2], "", ""),
		chainSQL(rels[:2], vars[:2], "", ""),
		chainSQL(rels[1:], vars[1:], "", ""),
		chainSQL(rels, vars, "", ""),
		chainSQL(rels, vars, "", "E3.a"),
		chainSQL(rels[:2], []chainPred{{Lit: 40}, {Var: "v2"}}, "", ""),
		chainSQL(rels, vars, "E1.a, E2.jl, E3.a", ""),
	}
}()

// httpGen is the generated input of http-query: each client's calls and
// the POST /query body encoding each call.
type httpGen struct {
	Seqs   [][]call
	Bodies [][][]byte
}

// genHTTP generates each client's request sequence: the statements in
// rotation, selectivities 0.01–0.1 for their host variables and 32–96
// pages, both stratified over the sequence so that the mix of result
// sizes is nearly the same for every seed. The selectivities keep
// replies to tens of rows, so that the daemon's per-request work (JSON,
// net/http, the handle map, the pipeline) rather than the client's
// decoding of large replies sets the pace. Each request is encoded as
// its body before timing starts, and every body asks for all rows
// (max_rows -1), so the answer can be checked.
func genHTTP(seed int64) httpGen {
	rng := rand.New(rand.NewSource(seed))
	var g httpGen
	for c := 0; c < httpClients; c++ {
		mem := strata(rng, httpSeqLen)
		sels := map[string][]float64{"v1": strata(rng, httpSeqLen), "v2": strata(rng, httpSeqLen), "v3": strata(rng, httpSeqLen)}
		order := rng.Perm(httpSeqLen)
		seq := make([]call, httpSeqLen)
		bodies := make([][]byte, httpSeqLen)
		for i := range seq {
			k := order[i]
			st := k % len(httpStatements)
			b := dynplan.Bindings{Selectivities: map[string]float64{}, MemoryPages: float64(32 + int(65*mem[k]))}
			for _, v := range []string{"v1", "v2", "v3"} {
				if strings.Contains(httpStatements[st], "?"+v) {
					b.Selectivities[v] = 0.01 + 0.09*sels[v][k]
				}
			}
			body, err := json.Marshal(map[string]any{
				"sql": httpStatements[st], "selectivities": b.Selectivities,
				"memory_pages": b.MemoryPages, "max_rows": -1,
			})
			if err != nil {
				panic(err) // maps of strings and floats always encode
			}
			seq[i], bodies[i] = call{Stmt: st, B: b}, body
		}
		g.Seqs = append(g.Seqs, seq)
		g.Bodies = append(g.Bodies, bodies)
	}
	return g
}

// httpInstance runs obsd as a subprocess and posts to it over one
// keep-alive connection per client, alternating between two tenants.
type httpInstance struct {
	bin  string
	seed int64
	httpGen
	refs [][]answer
	// ref is the in-process copy of obsd's demo database the reference
	// answers and the layer probes use.
	ref    probeSource
	cmd    *exec.Cmd
	base   string
	traced bool
	client *http.Client
}

func setupHTTP(seed int64, bin string) (instance, error) {
	if bin == "" {
		return nil, errors.New("http-query needs --obsd, the built cmd/obsd binary")
	}
	w := &httpInstance{bin: bin, seed: seed, httpGen: genHTTP(seed)}
	w.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: httpClients, MaxIdleConnsPerHost: httpClients, DisableCompression: true},
	}
	if err := w.start(false); err != nil {
		return nil, err
	}
	return w, nil
}

// start launches obsd with an empty registry (-n 0) on a free loopback
// port and waits until it serves /metrics.
func (w *httpInstance) start(traced bool) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr, "-seed", strconv.FormatInt(w.seed, 10), "-n", "0",
		"-stale", strconv.Itoa(httpStale), "-profile"}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(w.bin, args...)
	var logs bytes.Buffer
	cmd.Stdout, cmd.Stderr = &logs, &logs
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start obsd: %w", err)
	}
	w.cmd, w.base, w.traced = cmd, "http://"+addr, traced
	if err := rotor.attach(cmd.Process.Pid); err != nil {
		w.close()
		return fmt.Errorf("pin obsd: %w", err)
	}
	stop := time.Now().Add(30 * time.Second)
	for {
		resp, err := w.client.Get(w.base + "/metrics")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(stop) {
			w.close()
			return fmt.Errorf("obsd did not come up on %s: %v\n%s", addr, err, logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (w *httpInstance) close() {
	if w.cmd != nil {
		rotor.detach(w.cmd.Process.Pid)
		w.cmd.Process.Kill()
		w.cmd.Wait()
		w.cmd = nil
	}
	w.client.CloseIdleConnections()
}

func (w *httpInstance) clients() int { return httpClients }

func (w *httpInstance) window(traced bool) error {
	if traced == w.traced {
		return nil
	}
	w.close()
	return w.start(traced)
}

// reference builds obsd's demo database in process from the same seed
// and staleness — GenerateData, then the stale relation's surplus rows
// drawn from seed+1 — and computes every request's answer on it.
func (w *httpInstance) reference() error {
	sys := dynplan.New()
	var rels []relSpec
	for i := 1; i <= 3; i++ {
		rels = append(rels, relSpec{name: fmt.Sprintf("E%d", i), card: 400, aDom: 400, joinDom: 80})
	}
	createRelations(sys, rels, 512)
	db := sys.OpenDatabase()
	if err := db.GenerateData(w.seed); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed + 1))
	for i := 0; i < 400*(httpStale-1); i++ {
		if err := db.Insert("E1", []int64{int64(rng.Intn(400)), int64(rng.Intn(80)), int64(rng.Intn(80))}); err != nil {
			return err
		}
	}
	if err := db.BuildIndexes(); err != nil {
		return err
	}
	w.ref = probeSource{sys: sys, db: db}
	for _, s := range httpStatements {
		q, err := sys.Parse(s)
		if err != nil {
			return fmt.Errorf("parse %q: %w", s, err)
		}
		w.ref.queries = append(w.ref.queries, q)
	}
	var err error
	w.refs, err = w.ref.answers(w.Seqs)
	return err
}

// queryReply is the part of obsd's POST /query reply the benchmark reads.
type queryReply struct {
	PreparedReused bool      `json:"prepared_reused"`
	Columns        []string  `json:"columns"`
	RowCount       int       `json:"row_count"`
	Rows           [][]int64 `json:"rows"`
	ElapsedMS      float64   `json:"elapsed_ms"`
}

func (w *httpInstance) do(c, i int, acc *layerAcc, rec *recorder) outcome {
	k := i % len(w.Seqs[c])
	req, err := http.NewRequest(http.MethodPost, w.base+"/query", bytes.NewReader(w.Bodies[c][k]))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenants[i%2])
	rec.begin()
	sp := rec.open("HTTP", -1)
	t0 := time.Now()
	resp, err := w.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0)
	rec.close(sp)
	if err != nil {
		return outcome{lat: lat, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests && acc != nil {
			acc.sheds++
		}
		return outcome{lat: lat, err: fmt.Errorf("POST /query: %s: %s", resp.Status, bytes.TrimSpace(body))}
	}
	sp = rec.open("Decode", -1)
	var qr queryReply
	err = json.Unmarshal(body, &qr)
	rec.close(sp)
	if err != nil {
		return outcome{lat: lat, err: fmt.Errorf("decode reply: %w", err)}
	}
	if acc != nil {
		acc.httpReplies++
		if qr.PreparedReused {
			acc.reused++
		}
		acc.serverMS = append(acc.serverMS, qr.ElapsedMS)
		acc.overheadUS = append(acc.overheadUS, float64(lat.Nanoseconds())/1e3-qr.ElapsedMS*1e3)
	}
	wrong := qr.RowCount != len(qr.Rows) || digestRows(qr.Columns, qr.Rows) != w.refs[c][k]
	return outcome{lat: lat, wrong: wrong}
}

// getJSON fetches a JSON document from the daemon.
func (w *httpInstance) getJSON(path string, v any) error {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serverTraces fetches the span trees the traced daemon kept (its ring
// holds the most recent 64) and adds them as requests of their own.
func (w *httpInstance) serverTraces(rec *recorder) error {
	resp, err := w.client.Get(w.base + "/traces?n=64")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /traces: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var tr dynplan.TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			return fmt.Errorf("decode trace: %w", err)
		}
		rec.begin()
		rec.graft(-1, &tr)
	}
	return sc.Err()
}

// obsdMetrics is the part of obsd's /metrics the benchmark reads.
type obsdMetrics struct {
	Queries   int64  `json:"queries"`
	Errors    int64  `json:"errors"`
	Sheds     int64  `json:"sheds"`
	Hits      uint64 `json:"plan_cache_hits"`
	Misses    uint64 `json:"plan_cache_misses"`
	Evictions uint64 `json:"plan_cache_evictions"`
}

func (w *httpInstance) cacheStats() (dynplan.PlanCacheStats, error) {
	var m obsdMetrics
	if err := w.getJSON("/metrics", &m); err != nil {
		return dynplan.PlanCacheStats{}, err
	}
	return dynplan.PlanCacheStats{Hits: m.Hits, Misses: m.Misses, Evictions: m.Evictions}, nil
}

// books checks the daemon's own error and shed counters. Its grant
// books are not exposed over HTTP, so outstanding pages read as 0 here;
// the in-process workloads check them exactly.
func (w *httpInstance) books() (float64, error) {
	var m obsdMetrics
	if err := w.getJSON("/metrics", &m); err != nil {
		return 0, err
	}
	if m.Errors != 0 || m.Sheds != 0 {
		return 0, fmt.Errorf("books do not balance: obsd counted %d errors and %d sheds", m.Errors, m.Sheds)
	}
	return 0, nil
}

// probes runs the layer probes on the in-process copy of the demo
// database: obsd compiles and activates inside its process, out of the
// benchmark's reach.
func (w *httpInstance) probes() []probe { return w.ref.probes(w.Seqs[0]) }

func (w *httpInstance) meter() meter { return &obsdMeter{w: w} }

// obsdMeter meters the daemon process: CPU from /proc/<pid>/stat,
// allocation and GC counters from expvar's memstats (/debug/vars).
type obsdMeter struct{ w *httpInstance }

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

type memstats struct {
	TotalAlloc   uint64 `json:"TotalAlloc"`
	HeapAlloc    uint64 `json:"HeapAlloc"`
	NumGC        uint32 `json:"NumGC"`
	PauseTotalNs uint64 `json:"PauseTotalNs"`
}

func (m *obsdMeter) memstats() (memstats, error) {
	var v struct {
		Memstats memstats `json:"memstats"`
	}
	err := m.w.getJSON("/debug/vars", &v)
	return v.Memstats, err
}

func (m *obsdMeter) read() (resources, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", m.w.cmd.Process.Pid))
	if err != nil {
		return resources{}, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(fields) < 13 {
		return resources{}, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return resources{}, fmt.Errorf("parse /proc stat line %q", s)
	}
	ms, err := m.memstats()
	if err != nil {
		return resources{}, err
	}
	return resources{
		cpu:      time.Duration(utime+stime) * time.Second / clockTicks,
		alloc:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}, nil
}

// retainedHeap asks the daemon for a heap profile with gc=1, which runs a
// collection first, then reads the live heap from expvar; the smallest
// of heapReadings such readings leaves out what the daemon allocated
// between the collection and the read. The daemon's query log keeps its
// last 256 run records, whose sizes depend on the queries, so the first
// client's first 256 calls are replayed before reading: the log then
// holds the same records at the end of every run with this seed.
func (w *httpInstance) retainedHeap() (uint64, error) {
	for i := 0; i < httpSeqLen; i++ {
		if o := w.do(0, i, nil, nil); o.err != nil || o.wrong {
			return 0, fmt.Errorf("replaying call %d before the heap reading: %v (wrong answer: %t)", i, o.err, o.wrong)
		}
	}
	m := obsdMeter{w: w}
	var least uint64
	for k := 0; k < heapReadings; k++ {
		resp, err := w.client.Get(w.base + "/debug/pprof/heap?gc=1")
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ms, err := m.memstats()
		if err != nil {
			return 0, err
		}
		if k == 0 || ms.HeapAlloc < least {
			least = ms.HeapAlloc
		}
	}
	return least, nil
}
