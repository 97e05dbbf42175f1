package dynplan

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dynplan/internal/exec"
	"dynplan/internal/physical"
)

// TestObservatoryStaleCatalogFlagsViolation is the acceptance golden: a
// relation whose catalog cardinality is 4x stale must surface as an
// interval-calibration violation naming that relation with q-error >= 4.
func TestObservatoryStaleCatalogFlagsViolation(t *testing.T) {
	sys := New()
	// Catalog says 200 rows; the database will actually hold 800.
	sys.MustCreateRelation("S", 200, 128, Attr{Name: "a", DomainSize: 100})
	q, err := sys.BuildQuery(QuerySpec{
		Relations: []RelSpec{{Name: "S", Pred: &Pred{Attr: "a", Variable: "v"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db := sys.OpenDatabase()
	if err := db.GenerateData(1); err != nil { // 200 rows, as declared
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ { // 600 undeclared extras: catalog now 4x stale
		if err := db.Insert("S", []int64{int64(i % 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}

	db.EnableObservatory()
	defer db.DisableObservatory()
	b := Bindings{Selectivities: map[string]float64{"v": 1.0}, MemoryPages: 64}
	res, err := db.Exec(context.Background(), p, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Calibration) == 0 {
		t.Fatal("execution under the observatory produced no calibration verdicts")
	}
	if res.PlanDigest == "" {
		t.Error("execution produced no plan digest")
	}

	reps := db.Calibration()
	if len(reps) == 0 {
		t.Fatal("observatory holds no calibration reports")
	}
	var hit *CalibrationReport
	for i := range reps {
		if reps[i].Kind == "cardinality" && reps[i].Rel == "S" {
			hit = &reps[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no cardinality report names the stale relation S: %+v", reps)
	}
	if hit.Violations < 1 {
		t.Errorf("stale relation S not flagged as an interval violation: %+v", *hit)
	}
	if hit.MaxQError < 4 {
		t.Errorf("q-error on stale relation S = %g, want >= 4 (catalog is 4x stale)", hit.MaxQError)
	}
	// The worst offender sorts first, and the snapshot's gauge tracks it.
	if reps[0].MaxQError < hit.MaxQError {
		t.Errorf("reports not sorted worst-first: %+v", reps)
	}
	snap := db.MetricsSnapshot()
	if snap.Violations < 1 || snap.WorstQError < 4 {
		t.Errorf("snapshot violations=%d worst_q_error=%g", snap.Violations, snap.WorstQError)
	}

	// Analyze is the remedy: it refreshes the catalog cardinality from the
	// stored rows, so a re-optimized plan predicts over the truth and the
	// violation on S disappears.
	if err := db.Analyze(10); err != nil {
		t.Fatal(err)
	}
	p2, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db.EnableObservatory() // fresh registry: drop the stale-era verdicts
	res2, err := db.Exec(context.Background(), p2, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res2.Calibration {
		if v.Kind == "cardinality" && v.Rel == "S" && v.Violation {
			t.Errorf("violation on S survived re-analysis: %+v", v)
		}
	}
}

// TestObservatoryCountsQueries checks the registry's per-query tallies
// through the public Exec path, and that disabling tears them down.
func TestObservatoryCountsQueries(t *testing.T) {
	e := newObsEnv(t)
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()

	const n = 3
	for i := 0; i < n; i++ {
		if _, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.db.MetricsSnapshot()
	if snap == nil {
		t.Fatal("enabled observatory returned nil snapshot")
	}
	if snap.Queries != n || snap.Executions != n || snap.Errors != 0 {
		t.Fatalf("queries=%d executions=%d errors=%d, want %d/%d/0",
			snap.Queries, snap.Executions, snap.Errors, n, n)
	}
	if snap.LatencyNanos.Count != n || snap.LatencyNanos.Max <= 0 {
		t.Fatalf("latency histogram %+v", snap.LatencyNanos)
	}
	if len(snap.Operators) == 0 || len(snap.Relations) == 0 {
		t.Fatalf("operator/relation aggregates empty: ops=%v rels=%v",
			snap.Operators, snap.Relations)
	}
	if got := e.db.RecentQueries(0); len(got) != n {
		t.Fatalf("query log holds %d records, want %d", len(got), n)
	}

	e.db.DisableObservatory()
	if e.db.MetricsSnapshot() != nil || e.db.Calibration() != nil || e.db.RecentQueries(0) != nil {
		t.Fatal("disabled observatory still serves data")
	}
	// Executions with the observatory off must not panic or record.
	if _, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestObservatoryGovernedRunRecord checks the satellite: run records from
// governed executions carry the admission stats and the resilience
// account, both in the query log and via RunRecordFor.
func TestObservatoryGovernedRunRecord(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 256, MaxConcurrent: 2})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()

	res, err := e.db.Exec(context.Background(), e.mod, e.binds, ExecOptions{Governed: true, Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := res.RunRecordFor("governed", "", e.params)
	if rec.Admission == nil {
		t.Fatal("run record of a governed execution carries no admission stats")
	}
	if rec.Admission.GrantedPages <= 0 {
		t.Errorf("admission stats not populated: %+v", rec.Admission)
	}
	if rec.PlanDigest == "" {
		t.Error("run record carries no plan digest")
	}
	if len(rec.Calibration) == 0 {
		t.Error("run record of an observed execution carries no calibration verdicts")
	}
	if _, ok := rec.Metrics["q-error-max"]; !ok {
		t.Error("calibrated run record missing q-error-max metric")
	}

	logged := e.db.RecentQueries(1)
	if len(logged) != 1 {
		t.Fatalf("query log holds %d records, want 1", len(logged))
	}
	if logged[0].Admission == nil || logged[0].WallNanos <= 0 || logged[0].UnixNanos <= 0 {
		t.Errorf("logged record incomplete: %+v", logged[0])
	}
	// A record with verdicts must round-trip as JSON for the /queries feed.
	if _, err := json.Marshal(logged[0]); err != nil {
		t.Fatalf("logged record does not marshal: %v", err)
	}
}

// TestObservatoryHTTPEndpoints drives the database-level Handler end to
// end: /metrics, /calibration, and /queries over a live workload, then
// 503 once disabled.
func TestObservatoryHTTPEndpoints(t *testing.T) {
	e := newObsEnv(t)
	e.db.EnableObservatoryWithLog(8)
	srv := httptest.NewServer(e.db.Handler())
	defer srv.Close()

	for i := 0; i < 2; i++ {
		if _, err := e.db.Exec(context.Background(), e.static, e.binds, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d: %s", code, body)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if snap.Queries != 2 {
		t.Errorf("/metrics queries = %d, want 2", snap.Queries)
	}

	code, body = get("/calibration")
	if code != 200 {
		t.Fatalf("/calibration status %d", code)
	}
	var reps []CalibrationReport
	if err := json.Unmarshal(body, &reps); err != nil {
		t.Fatalf("/calibration is not JSON: %v\n%s", err, body)
	}

	code, body = get("/queries?n=1")
	if code != 200 {
		t.Fatalf("/queries status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 {
		t.Fatalf("/queries?n=1 returned %d lines", len(lines))
	}
	var rec RunRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("/queries line is not JSON: %v\n%s", err, lines[0])
	}

	e.db.DisableObservatory()
	if code, _ := get("/metrics"); code != 503 {
		t.Errorf("/metrics after disable: status %d, want 503", code)
	}
}

// TestObservatoryShedsCountSeparately squeezes admission until queries are
// rejected and checks sheds are tallied apart from query errors.
func TestObservatoryShedsCountSeparately(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{
		TotalPages:    64,
		MaxConcurrent: 1,
		MaxQueued:     1,
		QueueTimeout:  time.Nanosecond,
	})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()

	// Slow every root iterator down so executions overlap; otherwise the
	// single slot frees faster than the burst arrives and nothing queues.
	e.db.wrap = func(it exec.Iterator, n *physical.Node) exec.Iterator {
		return slowOpen{Iterator: it}
	}
	defer func() { e.db.wrap = nil }()

	// A burst of 10 simultaneous arrivals against one slot and a one-deep
	// queue must overflow: at least 8 are shed with ErrAdmission.
	const burst = 10
	var wg sync.WaitGroup
	var sheds atomic.Int64
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.db.Exec(context.Background(), e.mod, e.binds, ExecOptions{Governed: true, Resilient: true})
			if err != nil && errors.Is(err, ErrAdmission) {
				sheds.Add(1)
			}
		}()
	}
	wg.Wait()
	snap := e.db.MetricsSnapshot()
	if sheds.Load() == 0 {
		t.Fatal("burst of 10 arrivals against a 2-deep governor shed nothing")
	}
	if snap.Sheds == 0 {
		t.Error("shed queries not counted in the registry")
	}
	if snap.Errors != 0 {
		t.Errorf("sheds leaked into the error count: %d", snap.Errors)
	}
}

// slowOpen pads Open with a pause so governed executions overlap and the
// admission queue actually fills during burst tests.
type slowOpen struct{ exec.Iterator }

func (s slowOpen) Open() error {
	time.Sleep(5 * time.Millisecond)
	return s.Iterator.Open()
}
