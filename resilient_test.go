package dynplan

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// resilChainSystem builds an n-relation chain-query system like the
// paper's experiment harness, plus the chain query over it.
func resilChainSystem(t testing.TB, n int) (*System, *Query) {
	t.Helper()
	sys := New()
	spec := QuerySpec{}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("C%d", i)
		sys.MustCreateRelation(name, 200+i*70, 512,
			Attr{Name: "a", DomainSize: 150 + i*40, BTree: true},
			Attr{Name: "jl", DomainSize: 40 + i*9, BTree: true},
			Attr{Name: "jh", DomainSize: 50 + i*7, BTree: true},
		)
		spec.Relations = append(spec.Relations, RelSpec{
			Name: name, Pred: &Pred{Attr: "a", Variable: fmt.Sprintf("v%d", i)},
		})
	}
	for i := 1; i < n; i++ {
		spec.Joins = append(spec.Joins, JoinSpec{
			LeftRel: fmt.Sprintf("C%d", i), LeftAttr: "jh",
			RightRel: fmt.Sprintf("C%d", i+1), RightAttr: "jl",
		})
	}
	q, err := sys.BuildQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys, q
}

func resilDatabase(t testing.TB, sys *System) *Database {
	t.Helper()
	db := sys.OpenDatabase()
	if err := db.GenerateData(17); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		t.Fatal(err)
	}
	return db
}

func resilBindings(n int, sel, mem float64) Bindings {
	b := Bindings{Selectivities: map[string]float64{}, MemoryPages: mem}
	for i := 1; i <= n; i++ {
		b.Selectivities[fmt.Sprintf("v%d", i)] = sel
	}
	return b
}

// canonical renders a result as a sorted multiset with columns reordered
// alphabetically, for comparisons where a branch switch may legitimately
// change both the row order and the column layout (a different join order
// concatenates schemas differently).
func canonical(res *ExecResult) []string {
	cols := append([]string(nil), res.Columns...)
	sort.Strings(cols)
	perm := make([]int, len(cols))
	for i, c := range cols {
		for j, name := range res.Columns {
			if name == c {
				perm[i] = j
				break
			}
		}
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		vals := make([]int64, len(perm))
		for k, j := range perm {
			vals[k] = r[j]
		}
		out[i] = fmt.Sprint(vals)
	}
	sort.Strings(out)
	return out
}

// TestResilientFaultEquivalence is the acceptance scenario: with a 10%
// transient page-read error rate under a deterministic seed, every chain
// query whose dynamic plan has at least one choose-plan completes via the
// retrying fallback executor with rows byte-identical to the fault-free
// run.
func TestResilientFaultEquivalence(t *testing.T) {
	withChoosePlans := 0
	for _, n := range []int{1, 2, 3, 4} {
		sys, q := resilChainSystem(t, n)
		dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
		if err != nil {
			t.Fatal(err)
		}
		if dyn.ChoosePlanCount() > 0 {
			withChoosePlans++
		}
		mod, err := dyn.Module()
		if err != nil {
			t.Fatal(err)
		}
		db := resilDatabase(t, sys)
		b := resilBindings(n, 0.5, 64)

		clean, err := db.Exec(context.Background(), mod, b, ExecOptions{Resilient: true})
		if err != nil {
			t.Fatalf("n=%d: fault-free run failed: %v", n, err)
		}
		if clean.Retries != 0 {
			t.Fatalf("n=%d: fault-free run reports %d retries", n, clean.Retries)
		}

		db.InjectFaults(FaultConfig{Seed: 42, TransientRate: 0.10})
		// Each retry heals exactly the transient page it tripped on, so
		// recovery needs about as many attempts as there are faulty pages.
		faulty, err := db.Exec(context.Background(), mod, b, ExecOptions{Resilient: true, Policy: RetryPolicy{MaxAttempts: 100}})
		if err != nil {
			t.Fatalf("n=%d: resilient run did not recover: %v", n, err)
		}
		if !reflect.DeepEqual(faulty.Rows, clean.Rows) {
			t.Fatalf("n=%d: faulty run rows differ from fault-free run", n)
		}
		if !reflect.DeepEqual(faulty.Columns, clean.Columns) {
			t.Fatalf("n=%d: faulty run schema differs from fault-free run", n)
		}
		st := db.FaultStats()
		if st.Injected == 0 {
			t.Fatalf("n=%d: no faults were injected (reads=%d); the scenario is vacuous", n, st.Reads)
		}
		if faulty.Retries == 0 {
			t.Fatalf("n=%d: faults surfaced (%d injected) but no retries recorded", n, st.Injected)
		}
		t.Logf("n=%d: %d injected faults, %d retries, branch switched: %v",
			n, st.Injected, faulty.Retries, faulty.BranchSwitched)
	}
	if withChoosePlans == 0 {
		t.Fatal("no chain query produced a dynamic plan with choose-plans")
	}
}

// TestCanceledContextAllEntryPoints verifies Exec fails fast with
// ErrCanceled on a canceled context, for every kind of query target.
func TestCanceledContextAllEntryPoints(t *testing.T) {
	sys, q := resilChainSystem(t, 2)
	static, err := sys.OptimizeStatic(q)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	b := resilBindings(2, 0.5, 64)
	act, err := mod.Activate(b)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	entries := map[string]func() error{
		"node": func() error {
			_, err := db.Exec(ctx, static.Root(), b, ExecOptions{})
			return err
		},
		"static-plan": func() error {
			_, err := db.Exec(ctx, static, b, ExecOptions{})
			return err
		},
		"activation": func() error {
			_, err := db.Exec(ctx, act, b, ExecOptions{})
			return err
		},
		"adaptive-plan": func() error {
			_, err := db.Exec(ctx, dyn, b, ExecOptions{Adaptive: true})
			return err
		},
		"resilient-module": func() error {
			_, err := db.Exec(ctx, mod, b, ExecOptions{Resilient: true})
			return err
		},
	}
	for name, run := range entries {
		err := run()
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: want error wrapping ErrCanceled, got %v", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error should also wrap context.Canceled, got %v", name, err)
		}
		if !IsCanceled(err) {
			t.Errorf("%s: IsCanceled is false for %v", name, err)
		}
		if IsRetryable(err) {
			t.Errorf("%s: cancellation must not be retryable", name)
		}
	}
}

// TestResilientMemoryShrink exercises the downgrade path: a mid-query
// memory-shrink event fails the memory-hungry branch, and the fallback
// re-resolves under the reduced grant and completes with the same result.
func TestResilientMemoryShrink(t *testing.T) {
	n := 3
	sys, q := resilChainSystem(t, n)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{Memory: true})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	b := resilBindings(n, 0.9, 128)

	clean, err := db.Exec(context.Background(), mod, b, ExecOptions{Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	act, err := mod.Activate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(act.Explain(), "Hash-Join") {
		t.Skip("chosen plan has no hash join; the shrink event cannot trip it")
	}

	db.InjectFaults(FaultConfig{Seed: 5, MemShrinkAfterReads: 1, MemShrinkFactor: 0.01})
	res, err := db.Exec(context.Background(), mod, b, ExecOptions{Resilient: true})
	if err != nil {
		t.Fatalf("resilient run did not survive the shrink event: %v", err)
	}
	if !reflect.DeepEqual(canonical(res), canonical(clean)) {
		t.Fatal("post-shrink result differs from fault-free result")
	}
	if res.Retries == 0 {
		t.Fatal("shrink event did not force a retry despite a hash-join plan")
	}
	if res.EffectiveMemoryPages >= b.MemoryPages {
		t.Fatalf("effective memory %v not downgraded from grant %v",
			res.EffectiveMemoryPages, b.MemoryPages)
	}
	t.Logf("retries=%d branchSwitched=%v effectiveMemory=%.2f",
		res.Retries, res.BranchSwitched, res.EffectiveMemoryPages)
}

// TestResilientPermanentFaultGivesUp verifies unrecoverable faults are
// not retried forever: every alternative reads the same poisoned base
// pages, so the executor must give up with the typed permanent error.
func TestResilientPermanentFaultGivesUp(t *testing.T) {
	sys, q := resilChainSystem(t, 2)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	db.InjectFaults(FaultConfig{Seed: 9, PermanentRate: 0.9})
	_, err = db.Exec(context.Background(), mod, resilBindings(2, 0.5, 64), ExecOptions{Resilient: true, Policy: RetryPolicy{MaxAttempts: 3}})
	if err == nil {
		t.Fatal("expected permanent faults to defeat the executor")
	}
	if !errors.Is(err, ErrPermanentIO) {
		t.Fatalf("want error wrapping ErrPermanentIO, got %v", err)
	}
	if IsRetryable(err) {
		t.Fatalf("permanent failure must not be classified retryable: %v", err)
	}
	if op := FailedOperator(err); op == "" {
		t.Errorf("permanent failure should name the failing operator: %v", err)
	}
}

// TestAbsorbedFaultsMetadata verifies storage-level retries absorb
// transient faults invisibly and the result reports them.
func TestAbsorbedFaultsMetadata(t *testing.T) {
	sys, q := resilChainSystem(t, 2)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	b := resilBindings(2, 0.5, 64)
	act, err := mod.Activate(b)
	if err != nil {
		t.Fatal(err)
	}
	db.InjectFaults(FaultConfig{Seed: 21, TransientRate: 0.25, ReadRetries: 4})
	res, err := db.Exec(context.Background(), act, b, ExecOptions{})
	if err != nil {
		t.Fatalf("in-place retries should have absorbed every transient fault: %v", err)
	}
	if res.FaultsAbsorbed == 0 {
		t.Fatalf("no absorbed faults recorded (stats: %+v)", db.FaultStats())
	}
	if res.Retries != 0 {
		t.Errorf("plain execution must not report plan-level retries, got %d", res.Retries)
	}
}
