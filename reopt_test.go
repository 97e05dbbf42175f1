package dynplan

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynplan/internal/exec"
	"dynplan/internal/physical"
	"dynplan/internal/storage"
)

// reoptStaleDB builds an n-relation chain system and its database, then
// makes one relation's catalog cardinality stale by the given factor: the
// catalog keeps its declared count while the stored table grows to
// factor times that. Indexes are rebuilt over the full data, so every
// access path sees the truth — only the optimizer's estimates are wrong.
func reoptStaleDB(t testing.TB, n int, staleRel string, factor int) (*System, *Query, *Database) {
	t.Helper()
	sys, q := resilChainSystem(t, n)
	db := resilDatabase(t, sys)
	rel, err := sys.cat.Relation(staleRel)
	if err != nil {
		t.Fatal(err)
	}
	doms := make([]int64, len(rel.Attrs))
	for j, a := range rel.Attrs {
		doms[j] = int64(a.DomainSize)
	}
	for i := 0; i < (factor-1)*rel.Cardinality; i++ {
		row := make([]int64, len(doms))
		for j, d := range doms {
			row[j] = int64(i*(j+3)) % d
		}
		if err := db.Insert(staleRel, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	return sys, q, db
}

// requireViolationOn asserts the account's first event is a guard
// violation naming the stale relation with a q-error beyond tolerance.
func requireViolationOn(t *testing.T, acc *ReoptAccount, rel string, minQ float64) {
	t.Helper()
	if acc == nil {
		t.Fatal("execution carried no re-optimization account; no guard tripped")
	}
	if acc.Attempts < 1 {
		t.Fatalf("attempts = %d, want >= 1", acc.Attempts)
	}
	if len(acc.Events) == 0 || acc.Events[0].Stage != "violation" {
		t.Fatalf("first event is not a violation: %+v", acc.Events)
	}
	v := acc.Events[0]
	if v.Rel != rel {
		t.Errorf("violation names relation %q, want %q", v.Rel, rel)
	}
	if v.QError < minQ {
		t.Errorf("violation q-error = %g, want >= %g", v.QError, minQ)
	}
	if v.Op == "" {
		t.Error("violation carries no operator attribution")
	}
}

// TestReoptStaleCatalogReplan is the tentpole acceptance for the re-plan
// remedy: a static plan over a 4x-stale relation trips a cardinality
// guard at a hash-join build, re-enters the optimizer with the spooled
// temporary as a base relation, and finishes with rows identical to the
// plain execution — mid-query re-optimization must never change answers.
func TestReoptStaleCatalogReplan(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(3, 0.5, 64)
	ctx := context.Background()

	truth, err := db.Exec(ctx, p, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(ctx, p, b, ExecOptions{Reopt: &ReoptPolicy{Query: q}})
	if err != nil {
		t.Fatalf("re-optimizing execution failed: %v", err)
	}

	requireViolationOn(t, res.Reopt, "C2", 2)
	if !res.Reopt.Replanned {
		t.Errorf("plan target with a Query must re-plan, account: %+v", res.Reopt)
	}
	if res.Reopt.Switched || res.Reopt.Degraded {
		t.Errorf("unexpected remedies recorded: %+v", res.Reopt)
	}
	if res.Reopt.PlanningNanos <= 0 {
		t.Error("re-planning charged no planning time")
	}
	if res.Reopt.TempsCreated < 1 {
		t.Error("no temporary was spooled")
	}
	if got, want := canonical(res), canonical(truth); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("re-planned rows differ from plain execution: got %d rows, want %d", len(got), len(want))
	}
	if res.PageWrites == 0 {
		t.Error("spooling the temporary charged no page writes")
	}
}

// TestReoptStaleCatalogSwitch is the tentpole acceptance for the switch
// remedy plus its observability: a dynamic plan's module trips the guard,
// re-activates its surviving alternatives under the corrected
// selectivity, and splices the temporary in place of the violated
// subplan. The decision must surface in ExplainAnalyze, the registry, and
// the /queries trace ring.
func TestReoptStaleCatalogSwitch(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ChoosePlanCount() == 0 {
		t.Fatal("dynamic plan has no choose-plans; the switch scenario is vacuous")
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(3, 0.5, 64)
	ctx := context.Background()

	truth, err := db.Exec(ctx, mod, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}

	db.EnableObservability()
	defer db.DisableObservability()
	db.EnableObservatory()
	defer db.DisableObservatory()

	res, err := db.Exec(ctx, mod, b, ExecOptions{Reopt: &ReoptPolicy{}})
	if err != nil {
		t.Fatalf("re-optimizing execution failed: %v", err)
	}
	requireViolationOn(t, res.Reopt, "C2", 2)
	if !res.Reopt.Switched {
		t.Errorf("module target must switch, account: %+v", res.Reopt)
	}
	if got, want := canonical(res), canonical(truth); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("switched rows differ from plain execution: got %d rows, want %d", len(got), len(want))
	}

	// ExplainAnalyze renders the decision trace after the plan tree.
	ea := res.ExplainAnalyze(DefaultParams())
	if !strings.Contains(ea, "REOPT violation") || !strings.Contains(ea, "REOPT switch") {
		t.Errorf("ExplainAnalyze misses the re-opt transcript:\n%s", ea)
	}
	if !strings.Contains(ea, "[C2]") {
		t.Errorf("ExplainAnalyze does not name the violating relation:\n%s", ea)
	}

	// The registry counted the violation, the remedy, and a balanced
	// temp-ledger (created == released once the query is done).
	snap := db.MetricsSnapshot()
	if snap.Reopts < 1 || snap.ReoptSwitches < 1 {
		t.Errorf("registry reopts=%d switches=%d, want both >= 1", snap.Reopts, snap.ReoptSwitches)
	}
	if snap.ReoptTempsCreated == 0 || snap.ReoptTempsCreated != snap.ReoptTempsReleased {
		t.Errorf("temp ledger unbalanced: created=%d released=%d",
			snap.ReoptTempsCreated, snap.ReoptTempsReleased)
	}

	// The /queries trace ring carries the decision, machine-readable.
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The trace ring serves NDJSON: one run record per line.
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var rec struct {
			Reopt []struct {
				Stage string `json:"stage"`
				Rel   string `json:"rel"`
			} `json:"reopt"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("/queries payload: %v\n%s", err, line)
		}
		for _, e := range rec.Reopt {
			if e.Stage == "violation" && e.Rel == "C2" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("/queries carries no violation event naming C2:\n%s", body)
	}
}

// TestReoptDegrade pins the graceful floor: a static plan without the
// logical query can neither switch (no module) nor re-plan (no query), so
// the first trip degrades — the current plan finishes over the spooled
// temporary, still producing exactly the right rows.
func TestReoptDegrade(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(3, 0.5, 64)
	ctx := context.Background()

	truth, err := db.Exec(ctx, p, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(ctx, p, b, ExecOptions{Reopt: &ReoptPolicy{}})
	if err != nil {
		t.Fatalf("degrading execution failed: %v", err)
	}
	requireViolationOn(t, res.Reopt, "C2", 2)
	if !res.Reopt.Degraded || res.Reopt.Switched || res.Reopt.Replanned {
		t.Errorf("remedy-less trip must degrade, account: %+v", res.Reopt)
	}
	if got, want := canonical(res), canonical(truth); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("degraded rows differ from plain execution: got %d rows, want %d", len(got), len(want))
	}
}

// TestReoptFreshCatalogNoAccount pins the no-op cost: with accurate
// estimates no guard trips, the result carries no account, and the rows
// match an unguarded run.
func TestReoptFreshCatalogNoAccount(t *testing.T) {
	sys, q := resilChainSystem(t, 3)
	db := resilDatabase(t, sys)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(3, 0.5, 64)
	ctx := context.Background()
	truth, err := db.Exec(ctx, p, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(ctx, p, b, ExecOptions{Reopt: &ReoptPolicy{Query: q}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reopt != nil {
		t.Errorf("fresh catalog produced a re-opt account: %+v", res.Reopt)
	}
	if got, want := canonical(res), canonical(truth); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Error("guarded rows differ from plain execution under a fresh catalog")
	}
}

// TestReoptGovernedResilientStack runs the full stack — admission, grant,
// breaker, retry, re-opt — over the stale catalog and checks the remedy
// still fires, rows still match, and the governor's books still balance.
func TestReoptGovernedResilientStack(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	b := resilBindings(3, 0.5, 64)
	ctx := context.Background()
	truth, err := db.Exec(ctx, mod, b, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.SetGovernor(GovernorConfig{TotalPages: 256, MaxConcurrent: 2})
	defer db.ClearGovernor()
	res, err := db.Exec(ctx, mod, b, ExecOptions{
		Governed: true, Resilient: true, Reopt: &ReoptPolicy{Query: q},
	})
	if err != nil {
		t.Fatalf("governed re-optimizing execution failed: %v", err)
	}
	requireViolationOn(t, res.Reopt, "C2", 2)
	if got, want := canonical(res), canonical(truth); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("governed re-opt rows differ: got %d rows, want %d", len(got), len(want))
	}
	if res.Admission == nil {
		t.Error("governed execution carries no admission stats")
	}
	if got := db.OutstandingGrantPages(); got != 0 {
		t.Errorf("outstanding grant pages = %v, want 0", got)
	}
	s := db.GovernorStats()
	if s.Admitted != s.Completed {
		t.Errorf("admitted %d != completed %d: a ticket leaked across the re-opt", s.Admitted, s.Completed)
	}
}

// TestReoptAdaptiveExclusion pins Exec's option guard: the Adaptive engine
// already observes before deciding, so combining it with Reopt is a
// configuration error, typed.
func TestReoptAdaptiveExclusion(t *testing.T) {
	sys, q := resilChainSystem(t, 2)
	db := resilDatabase(t, sys)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec(context.Background(), dyn, resilBindings(2, 0.5, 64),
		ExecOptions{Adaptive: true, Reopt: &ReoptPolicy{}})
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("Adaptive+Reopt err = %v, want *PipelineError", err)
	}
}

// TestReoptDeadlineExceededMidQuery arms the per-query deadline and makes
// the build-side scan pathologically slow; the query must die with a
// typed ErrDeadlineExceeded, and a governed run must release its grant
// and ticket on the failure path.
func TestReoptDeadlineExceededMidQuery(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db.wrap = stallWrap("C1", 400*time.Millisecond)
	db.SetGovernor(GovernorConfig{TotalPages: 256, MaxConcurrent: 2})
	defer db.ClearGovernor()
	b := resilBindings(3, 0.5, 64)

	_, err = db.Exec(context.Background(), p, b, ExecOptions{
		Governed: true,
		Reopt:    &ReoptPolicy{Query: q, Deadline: 40 * time.Millisecond},
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !IsCanceled(err) {
		t.Errorf("deadline error not classified as canceled: %v", err)
	}
	if got := db.OutstandingGrantPages(); got != 0 {
		t.Errorf("outstanding grant pages after deadline kill = %v, want 0", got)
	}
	s := db.GovernorStats()
	if s.Admitted != s.Completed {
		t.Errorf("admitted %d != completed %d after deadline kill", s.Admitted, s.Completed)
	}
}

// TestReoptNoProgressTimeout arms the progress watchdog and stalls a scan
// long enough that no tuples advance for the whole timeout: the watchdog
// must cancel the query with a typed ErrNoProgress and count the stall.
func TestReoptNoProgressTimeout(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db.wrap = stallWrap("C1", 600*time.Millisecond)
	db.EnableObservatory()
	defer db.DisableObservatory()
	b := resilBindings(3, 0.5, 64)

	_, err = db.Exec(context.Background(), p, b, ExecOptions{
		Reopt: &ReoptPolicy{Query: q, NoProgressTimeout: 50 * time.Millisecond},
	})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if snap := db.MetricsSnapshot(); snap.WatchdogStalls < 1 {
		t.Errorf("watchdog stalls = %d, want >= 1", snap.WatchdogStalls)
	}
}

// TestReoptCancellationMidQuery cancels the caller's context while a scan
// is stalled: the error must be ErrCanceled — not misattributed to the
// watchdog or the deadline — and repeated temp release must stay
// idempotent (the registry ledger balances).
func TestReoptCancellationMidQuery(t *testing.T) {
	sys, q, db := reoptStaleDB(t, 3, "C2", 4)
	p, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	db.wrap = stallWrap("C1", 600*time.Millisecond)
	db.EnableObservatory()
	defer db.DisableObservatory()
	b := resilBindings(3, 0.5, 64)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err = db.Exec(ctx, p, b, ExecOptions{
		Reopt: &ReoptPolicy{Query: q, Deadline: 5 * time.Second, NoProgressTimeout: 5 * time.Second},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	snap := db.MetricsSnapshot()
	if snap.ReoptTempsCreated != snap.ReoptTempsReleased {
		t.Errorf("temp ledger unbalanced after cancellation: created=%d released=%d",
			snap.ReoptTempsCreated, snap.ReoptTempsReleased)
	}
}

// stallWrap returns an iterator decorator: every compiled scan over rel
// sleeps pause once on its first Next — a stall (no tuples advance while
// it sleeps), not slowness, so the watchdog and the deadline both get a
// clean window to fire in. Re-planned attempts compile fresh iterators
// and stall again.
func stallWrap(rel string, pause time.Duration) func(exec.Iterator, *physical.Node) exec.Iterator {
	return func(it exec.Iterator, n *physical.Node) exec.Iterator {
		if n == nil || n.Rel != rel || !n.Op.IsScan() {
			return it
		}
		return &stallIter{inner: it, pause: pause}
	}
}

type stallIter struct {
	inner   exec.Iterator
	pause   time.Duration
	stalled bool
}

func (s *stallIter) Open() error { return s.inner.Open() }
func (s *stallIter) Next() (storage.Row, bool, error) {
	if !s.stalled {
		s.stalled = true
		time.Sleep(s.pause)
	}
	return s.inner.Next()
}
func (s *stallIter) Close() error { return s.inner.Close() }
