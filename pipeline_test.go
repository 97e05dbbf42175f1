package dynplan

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dynplan/internal/obs"
)

// parentStacks are the twelve stage stacks the execution pipeline kept
// pre-compiled before it became one stack with per-stage predicates,
// keyed by the options that selected each: whether the target is a
// *Module, and the Governed, Resilient, and Reopt options. The one stack
// must reproduce every one of them span for span.
var parentStacks = []struct {
	name                               string
	module, governed, resilient, reopt bool
	stack                              string
}{
	{"plain", false, false, false, false, "Record Degrade Run"},
	{"governed-plain", false, true, false, false, "Record Admit Grant Degrade Run"},
	{"plain-reopt", false, false, false, true, "Record Degrade Reopt Run"},
	{"governed-plain-reopt", false, true, false, true, "Record Admit Grant Degrade Reopt Run"},
	{"activate", true, false, false, false, "Record Degrade Activate Run"},
	{"governed-activate", true, true, false, false, "Record Admit Grant Degrade Activate Run"},
	{"resilient", true, false, true, false, "Record Breaker Retry Degrade Activate Run"},
	{"full", true, true, true, false, "Record Admit Grant Breaker Retry Degrade Activate Run"},
	{"activate-reopt", true, false, false, true, "Record Degrade Reopt Activate Run"},
	{"governed-activate-reopt", true, true, false, true, "Record Admit Grant Degrade Reopt Activate Run"},
	{"resilient-reopt", true, false, true, true, "Record Breaker Retry Degrade Reopt Activate Run"},
	{"full-reopt", true, true, true, true, "Record Admit Grant Breaker Retry Degrade Reopt Activate Run"},
}

// stageShape is one traced run of a valid option combination: the
// parent stack it must reproduce and the stage spans it produced.
type stageShape struct {
	stack, combo string
	want, got    []string
}

// tracedStageShapes runs every valid combination of query target
// (resolved node, static plan, activation, module, adaptive plan) and the
// Governed, Resilient, Reopt, and Parallel options once with tracing on,
// and returns each run's stage-span names beside its parent stack.
func tracedStageShapes(t *testing.T) []stageShape {
	t.Helper()
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 1024, MaxConcurrent: 4})
	defer e.db.ClearGovernor()
	act, err := e.mod.Activate(e.binds)
	if err != nil {
		t.Fatal(err)
	}
	targets := []struct {
		name     string
		q        any
		module   bool
		adaptive bool
	}{
		{"node", e.static.Root(), false, false},
		{"static-plan", e.static, false, false},
		{"activation", act, false, false},
		{"module", e.mod, true, false},
		{"adaptive-plan", e.dyn, false, true},
	}
	var shapes []stageShape
	for _, tg := range targets {
		for _, ps := range parentStacks {
			if ps.module != tg.module {
				continue
			}
			for _, par := range []bool{false, true} {
				o := ExecOptions{Governed: ps.governed, Resilient: ps.resilient, Parallel: par,
					Adaptive: tg.adaptive, Trace: true}
				if ps.reopt {
					o.Reopt = &ReoptPolicy{}
				}
				if tg.adaptive && (ps.governed || ps.resilient || ps.reopt || par) {
					continue // rejected with ErrPipeline; see TestExecRejectsInvalidCombinations
				}
				combo := fmt.Sprintf("%s/parallel=%v", tg.name, par)
				res, err := e.db.Exec(context.Background(), tg.q, e.binds, o)
				if err != nil {
					t.Fatalf("%s %s: %v", ps.name, combo, err)
				}
				var got []string
				for _, s := range spansOfKind(res.Trace, obs.SpanStage) {
					got = append(got, s.Name)
				}
				shapes = append(shapes, stageShape{stack: ps.name, combo: combo,
					want: strings.Fields(ps.stack), got: got})
			}
		}
	}
	return shapes
}

// TestPipelineStackValidation pins the stage shape of every valid option
// combination: one subtest per parent stack compares each combination
// that selected it against its stage spans, and one subtest per stack
// rule the stage order must keep checks that rule over every live
// stack.
func TestPipelineStackValidation(t *testing.T) {
	shapes := tracedStageShapes(t)
	for _, ps := range parentStacks {
		t.Run(ps.name, func(t *testing.T) {
			n := 0
			for _, sh := range shapes {
				if sh.stack != ps.name {
					continue
				}
				n++
				if !reflect.DeepEqual(sh.got, sh.want) {
					t.Errorf("%s: stage spans %v, want %v", sh.combo, sh.got, sh.want)
				}
			}
			if n == 0 {
				t.Error("no option combination selects this stack")
			}
		})
	}

	canonical := []string{"Record", "Admit", "Grant", "Breaker", "Retry", "Degrade", "Reopt", "Activate", "Run"}
	rank := func(name string) int { return slices.Index(canonical, name) }
	count := func(stack []string, name string) int {
		n := 0
		for _, s := range stack {
			if s == name {
				n++
			}
		}
		return n
	}
	inOrder := func(stack []string) bool {
		for i := 1; i < len(stack); i++ {
			if rank(stack[i-1]) >= rank(stack[i]) {
				return false
			}
		}
		return true
	}
	implies := func(stack []string, a, b string) bool { return count(stack, a) == 0 || count(stack, b) > 0 }
	rules := []struct {
		name string
		ok   func(stack []string) bool
	}{
		{"empty", func(st []string) bool { return len(st) > 0 }},
		{"single", func(st []string) bool { return len(st) >= 2 }},
		{"no-record", func(st []string) bool { return count(st, "Record") > 0 }},
		{"no-run", func(st []string) bool { return count(st, "Run") > 0 }},
		{"record-not-first", func(st []string) bool { return st[0] == "Record" }},
		{"run-not-last", func(st []string) bool { return st[len(st)-1] == "Run" }},
		{"duplicate-record", func(st []string) bool { return count(st, "Record") == 1 }},
		{"duplicate-retry", func(st []string) bool { return count(st, "Retry") <= 1 }},
		{"out-of-order", inOrder},
		{"activate-before-retry", func(st []string) bool {
			return !slices.Contains(st, "Retry") || !slices.Contains(st, "Activate") ||
				slices.Index(st, "Retry") < slices.Index(st, "Activate")
		}},
		{"admit-without-grant", func(st []string) bool { return implies(st, "Admit", "Grant") }},
		{"grant-without-admit", func(st []string) bool { return implies(st, "Grant", "Admit") }},
		{"retry-without-activate", func(st []string) bool { return implies(st, "Retry", "Activate") }},
		{"breaker-without-activate", func(st []string) bool { return implies(st, "Breaker", "Activate") }},
		{"unknown-stage", func(st []string) bool {
			for _, s := range st {
				if rank(s) < 0 {
					return false
				}
			}
			return true
		}},
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, sh := range shapes {
				if len(sh.got) == 0 || !r.ok(sh.got) {
					t.Errorf("%s %s: stage spans %v break the rule", sh.stack, sh.combo, sh.got)
				}
			}
		})
	}
}

// TestExecRejectsInvalidCombinations checks Exec's fail-fast typed
// errors for option/target mismatches.
func TestExecRejectsInvalidCombinations(t *testing.T) {
	e := newObsEnv(t)
	ctx := context.Background()
	cases := []struct {
		name string
		q    any
		o    ExecOptions
	}{
		{"unknown-target", 42, ExecOptions{}},
		{"nil-target", nil, ExecOptions{}},
		{"resilient-plan", e.static, ExecOptions{Resilient: true}},
		{"resilient-node", e.static.Root(), ExecOptions{Resilient: true}},
		{"adaptive-module", e.mod, ExecOptions{Adaptive: true}},
		{"adaptive-governed", e.dyn, ExecOptions{Adaptive: true, Governed: true}},
		{"adaptive-resilient", e.dyn, ExecOptions{Adaptive: true, Resilient: true}},
		{"adaptive-reopt", e.dyn, ExecOptions{Adaptive: true, Reopt: &ReoptPolicy{}}},
		{"adaptive-parallel", e.dyn, ExecOptions{Adaptive: true, Parallel: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.db.Exec(ctx, tc.q, e.binds, tc.o)
			if err == nil {
				t.Fatal("invalid combination executed")
			}
			if !errors.Is(err, ErrPipeline) {
				t.Fatalf("rejection is not typed ErrPipeline: %v", err)
			}
		})
	}
	// The historical dynamic-plan guard keeps its non-pipeline error text.
	if _, err := e.db.Exec(ctx, e.dyn, e.binds, ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "cannot execute a dynamic plan directly") {
		t.Errorf("dynamic-plan guard lost its error: %v", err)
	}
}

// TestExecRejectsInvalidBindings checks that bindings outside their
// domains fail with ErrInvalidBindings at the entry point — before any
// stage runs, so a governed query never draws a grant of NaN pages that
// would poison the governor's books for every later query — and from
// the Module activation methods.
func TestExecRejectsInvalidBindings(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 1024, MaxConcurrent: 4, QueueTimeout: time.Second})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()
	ctx := context.Background()
	with := func(mem float64, sel float64) Bindings {
		b := Bindings{Selectivities: map[string]float64{}, MemoryPages: mem}
		for v, s := range e.binds.Selectivities {
			b.Selectivities[v] = s
		}
		b.Selectivities["v2"] = sel
		return b
	}
	cases := []struct {
		name string
		b    Bindings
	}{
		{"memory-nan", with(math.NaN(), 0.1)},
		{"memory-inf", with(math.Inf(1), 0.1)},
		{"memory-negative-inf", with(math.Inf(-1), 0.1)},
		{"memory-negative", with(-1, 0.1)},
		{"selectivity-above-one", with(64, 1.5)},
		{"selectivity-negative", with(64, -0.1)},
		{"selectivity-nan", with(64, math.NaN())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.db.Exec(ctx, e.mod, tc.b, ExecOptions{Governed: true, Resilient: true})
			if !errors.Is(err, ErrInvalidBindings) {
				t.Fatalf("governed Exec: err = %v, want ErrInvalidBindings", err)
			}
			if got := e.db.OutstandingGrantPages(); got != 0 {
				t.Fatalf("rejected query left %v outstanding grant pages, want 0", got)
			}
			if _, err := e.db.Exec(ctx, e.static, tc.b, ExecOptions{}); !errors.Is(err, ErrInvalidBindings) {
				t.Errorf("plain Exec: err = %v, want ErrInvalidBindings", err)
			}
			if _, err := e.mod.Activate(tc.b); !errors.Is(err, ErrInvalidBindings) {
				t.Errorf("Activate: err = %v, want ErrInvalidBindings", err)
			}
			if _, err := e.mod.ActivateValidated(tc.b); !errors.Is(err, ErrInvalidBindings) {
				t.Errorf("ActivateValidated: err = %v, want ErrInvalidBindings", err)
			}
			if _, err := e.mod.ActivateWithBranchAndBound(tc.b); !errors.Is(err, ErrInvalidBindings) {
				t.Errorf("ActivateWithBranchAndBound: err = %v, want ErrInvalidBindings", err)
			}
		})
	}
	// Rejections never reach the governor or the Record stage, and the
	// governor's books stay balanced: a valid governed query still runs.
	if s := e.db.GovernorStats(); s.Admitted != 0 || s.ShedQueueFull != 0 || s.ShedTimeout != 0 {
		t.Errorf("rejected queries reached the governor: %+v", s)
	}
	if q := e.db.MetricsSnapshot().Queries; q != 0 {
		t.Errorf("rejected queries were recorded: %d", q)
	}
	res, err := e.db.Exec(ctx, e.mod, e.binds, ExecOptions{Governed: true, Resilient: true})
	if err != nil {
		t.Fatalf("valid governed query after the rejections: %v", err)
	}
	if res.Admission == nil || res.Admission.GrantedPages != e.binds.MemoryPages {
		t.Errorf("grant after the rejections = %+v, want %v pages", res.Admission, e.binds.MemoryPages)
	}
	if got := e.db.OutstandingGrantPages(); got != 0 {
		t.Errorf("outstanding grant pages after a valid query = %v, want 0", got)
	}
}

// TestExecPipelineDispatchAllocs pins the satellite perf guard inline:
// stage dispatch through the one stack allocates nothing on the
// disabled-observatory path (the per-query execState is the caller's
// only allocation, excluded here by reusing one).
func TestExecPipelineDispatchAllocs(t *testing.T) {
	db := New().OpenDatabase()
	stub := &ExecResult{}
	st := &execState{db: db, run: func(ctx context.Context, st *execState) (*ExecResult, error) {
		return stub, nil
	}}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := st.exec(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("plain dispatch allocates %v objects per call, want 0", allocs)
	}
}

// TestGovernedAndResilientResolveGrantIdentically is the regression
// satellite for the shared Activate stage: for the same effective memory
// grant, the governed path (grant negotiated by the broker) and the
// resilient path (grant passed directly) must resolve choose-plans to
// the same branch — including when the broker degrades the grant.
func TestGovernedAndResilientResolveGrantIdentically(t *testing.T) {
	sys, q := resilChainSystem(t, 3)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.ChoosePlanCount() == 0 {
		t.Fatal("module has no choose-plans; the scenario is vacuous")
	}
	mod, err := dyn.Module()
	if err != nil {
		t.Fatal(err)
	}
	db := resilDatabase(t, sys)
	db.EnableObservatory() // PlanDigest identifies the resolved branch
	defer db.DisableObservatory()
	ctx := context.Background()

	cases := []struct {
		name             string
		poolPages, want  float64
		expectDegraded   bool
		expectGrantPages float64
	}{
		// Full grant: broker satisfies the request as-is.
		{"full-grant", 1024, 48, false, 48},
		// Degraded grant: the request exceeds the pool, so the broker
		// degrades to what it has and choose-plan resolution must see the
		// degraded number — on both paths.
		{"degraded-grant", 64, 256, true, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db.SetGovernor(GovernorConfig{TotalPages: tc.poolPages, MinGrantPages: 8, MaxConcurrent: 2})
			defer db.ClearGovernor()

			gov, err := db.Exec(ctx, mod, resilBindings(3, 0.4, tc.want), ExecOptions{Governed: true, Resilient: true})
			if err != nil {
				t.Fatal(err)
			}
			if gov.Admission == nil {
				t.Fatal("governed execution carries no admission stats")
			}
			if gov.Admission.Degraded != tc.expectDegraded || gov.Admission.GrantedPages != tc.expectGrantPages {
				t.Fatalf("grant = %+v, want degraded=%v granted=%v",
					gov.Admission, tc.expectDegraded, tc.expectGrantPages)
			}

			// The resilient path with the grant as its memory binding must
			// resolve to the identical plan.
			res, err := db.Exec(ctx, mod, resilBindings(3, 0.4, gov.Admission.GrantedPages), ExecOptions{Resilient: true})
			if err != nil {
				t.Fatal(err)
			}
			if gov.PlanDigest == "" || res.PlanDigest == "" {
				t.Fatal("executions carry no plan digest")
			}
			if gov.PlanDigest != res.PlanDigest {
				t.Errorf("governed grant of %v pages resolved plan %s; resilient at the same grant resolved %s",
					gov.Admission.GrantedPages, gov.PlanDigest, res.PlanDigest)
			}
			if gov.EffectiveMemoryPages != res.EffectiveMemoryPages {
				t.Errorf("effective memory differs: governed %v, resilient %v",
					gov.EffectiveMemoryPages, res.EffectiveMemoryPages)
			}
		})
	}
}

// fieldExpectation says how one ExecResult field must look after a
// successful query under one option combination.
type fieldExpectation int

const (
	expectZero fieldExpectation = iota // must be the zero value
	expectSet                          // must be non-zero (non-nil, non-empty)
	expectAny                          // data-dependent; either is fine
)

// TestExecResultFieldUniformity is the field-drift satellite: every
// ExecResult field must be classified for every target and option
// combination, and populated (or explicitly zero) accordingly. A new
// field without a classification row fails the test, so metadata can no
// longer drift silently between execution paths.
func TestExecResultFieldUniformity(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 1024, MaxConcurrent: 4})
	defer e.db.ClearGovernor()
	e.db.EnableObservatory()
	defer e.db.DisableObservatory()
	ctx := context.Background()

	act, err := e.mod.Activate(e.binds)
	if err != nil {
		t.Fatal(err)
	}
	moduleTrace := expectAny
	if e.dyn.ChoosePlanCount() > 0 {
		moduleTrace = expectSet
	}

	// The combinations keep the names of the entry points they used to be
	// reached through, so the subtests compare across versions.
	combos := []struct {
		name string
		q    any
		o    ExecOptions
	}{
		{"ExecutePlan", e.static, ExecOptions{}},
		{"ExecuteContext", e.static.Root(), ExecOptions{}},
		{"ExecuteActivation", act, ExecOptions{}},
		{"ExecActivate", e.mod, ExecOptions{}},
		{"ExecuteResilient", e.mod, ExecOptions{Resilient: true}},
		{"ExecuteGoverned", e.mod, ExecOptions{Governed: true, Resilient: true}},
		{"ExecGovernedPlain", e.static, ExecOptions{Governed: true}},
		{"ExecAdaptive", e.dyn, ExecOptions{Adaptive: true}},
	}

	// One row per ExecResult field: the default expectation, plus
	// per-combination overrides. Every field of the struct must appear here.
	expectations := map[string]struct {
		def       fieldExpectation
		overrides map[string]fieldExpectation
	}{
		"Rows":          {def: expectSet, overrides: map[string]fieldExpectation{"ExecAdaptive": expectAny}},
		"Columns":       {def: expectSet},
		"SeqPageReads":  {def: expectAny},
		"RandPageReads": {def: expectAny},
		"PageWrites":    {def: expectAny},
		"TupleOps":      {def: expectSet},
		// No faults are injected, so the resilience account must stay
		// uniformly zero — on every path, not just the plain ones.
		"Retries":              {def: expectZero},
		"BranchSwitched":       {def: expectZero},
		"FaultsAbsorbed":       {def: expectZero},
		"Backoffs":             {def: expectZero},
		"BackoffTotal":         {def: expectZero},
		"EffectiveMemoryPages": {def: expectSet},
		// Admission stats exist exactly on the runs with a Grant stage.
		"Admission": {def: expectZero, overrides: map[string]fieldExpectation{
			"ExecuteGoverned": expectSet, "ExecGovernedPlain": expectSet,
		}},
		// The observatory is enabled, so every static-engine run carries
		// operator stats, a digest, and calibration verdicts; the adaptive
		// engine accounts for itself in the Adaptive field instead.
		"Operators":   {def: expectSet, overrides: map[string]fieldExpectation{"ExecAdaptive": expectZero}},
		"PlanDigest":  {def: expectSet, overrides: map[string]fieldExpectation{"ExecAdaptive": expectZero}},
		"Calibration": {def: expectSet, overrides: map[string]fieldExpectation{"ExecAdaptive": expectZero}},
		// Start-up decision traces ride along wherever an Activate stage ran.
		"Decisions": {def: expectZero, overrides: map[string]fieldExpectation{
			"ExecActivate": moduleTrace, "ExecuteResilient": moduleTrace, "ExecuteGoverned": moduleTrace,
		}},
		"Adaptive": {def: expectZero, overrides: map[string]fieldExpectation{"ExecAdaptive": expectSet}},
		// No combination here enables re-optimization, and with a fresh catalog no
		// guard would trip anyway; the account must stay uniformly nil.
		"Reopt": {def: expectZero},
		// Likewise no combination here passes ExecOptions.Parallel, so the
		// parallelism account must stay uniformly nil — and with no
		// parallel execution the degradation ladder can take no step.
		"Parallel": {def: expectZero},
		"Degrade":  {def: expectZero},
		// No combination here sets ExecOptions.Tenant or executes a prepared
		// statement, so the tenancy and plan-cache provenance must stay
		// uniformly zero.
		"Tenant":       {def: expectZero},
		"PlanCacheHit": {def: expectZero},
		// Tracing is off (neither EnableTracing nor ExecOptions.Trace), so
		// no run may carry a trace ID or span tree.
		"TraceID": {def: expectZero},
		"Trace":   {def: expectZero},
	}

	typ := reflect.TypeOf(ExecResult{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := expectations[typ.Field(i).Name]; !ok {
			t.Errorf("ExecResult field %q has no uniformity classification; add it to this test's table",
				typ.Field(i).Name)
		}
	}

	for _, f := range combos {
		t.Run(f.name, func(t *testing.T) {
			res, err := e.db.Exec(ctx, f.q, e.binds, f.o)
			if err != nil {
				t.Fatal(err)
			}
			v := reflect.ValueOf(*res)
			for i := 0; i < typ.NumField(); i++ {
				name := typ.Field(i).Name
				spec, ok := expectations[name]
				if !ok {
					continue // reported above
				}
				want := spec.def
				if o, ok := spec.overrides[f.name]; ok {
					want = o
				}
				isZero := v.Field(i).IsZero()
				switch want {
				case expectSet:
					if isZero {
						t.Errorf("field %s is zero; this combination must populate it", name)
					}
				case expectZero:
					if !isZero {
						t.Errorf("field %s = %v; this combination must leave it zero", name, v.Field(i))
					}
				}
			}
		})
	}
}

// TestExactlyOneRunRecordPerFacade is the structural recording criterion:
// every target and option combination — plain, activation, resilient,
// governed, adaptive — adds exactly one query tally and one run record to
// the observatory per query, because only the outermost Record stage
// records.
func TestExactlyOneRunRecordPerFacade(t *testing.T) {
	e := newObsEnv(t)
	e.db.SetGovernor(GovernorConfig{TotalPages: 1024, MaxConcurrent: 4})
	defer e.db.ClearGovernor()
	e.db.EnableObservatoryWithLog(64)
	defer e.db.DisableObservatory()
	ctx := context.Background()

	act, err := e.mod.Activate(e.binds)
	if err != nil {
		t.Fatal(err)
	}
	// The *Context rows run under a context with a deadline, the rest
	// under context.Background(); the combinations keep the names of the
	// entry points they used to be reached through.
	live, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	combos := []struct {
		name string
		ctx  context.Context
		q    any
		o    ExecOptions
	}{
		{"Execute", ctx, e.static.Root(), ExecOptions{}},
		{"ExecutePlan", ctx, e.static, ExecOptions{}},
		{"ExecutePlanContext", live, e.static, ExecOptions{}},
		{"ExecuteActivation", ctx, act, ExecOptions{}},
		{"ExecuteActivationContext", live, act, ExecOptions{}},
		{"ExecActivate", ctx, e.mod, ExecOptions{}},
		{"ExecuteResilient", ctx, e.mod, ExecOptions{Resilient: true}},
		{"ExecuteGoverned", live, e.mod, ExecOptions{Governed: true, Resilient: true}},
		{"ExecGoverned", ctx, e.mod, ExecOptions{Governed: true, Resilient: true}},
		{"ExecuteAdaptive", ctx, e.dyn, ExecOptions{Adaptive: true}},
		{"ExecuteAdaptiveContext", live, e.dyn, ExecOptions{Adaptive: true}},
	}

	for _, f := range combos {
		t.Run(f.name, func(t *testing.T) {
			before := e.db.MetricsSnapshot()
			beforeLog := len(e.db.RecentQueries(0))
			if _, err := e.db.Exec(f.ctx, f.q, e.binds, f.o); err != nil {
				t.Fatal(err)
			}
			after := e.db.MetricsSnapshot()
			if got := after.Queries - before.Queries; got != 1 {
				t.Errorf("query tally grew by %d, want exactly 1", got)
			}
			if got := len(e.db.RecentQueries(0)) - beforeLog; got != 1 {
				t.Errorf("query log grew by %d records, want exactly 1", got)
			}
			if after.Errors != before.Errors {
				t.Errorf("successful query counted as error")
			}
			if after.Executions < after.Queries {
				t.Errorf("executions=%d < queries=%d", after.Executions, after.Queries)
			}
		})
	}
}

// TestPipelineErrorRendering pins the error shape: the violated rule,
// unwrapping to ErrPipeline.
func TestPipelineErrorRendering(t *testing.T) {
	err := &PipelineError{Reason: "bad target"}
	if got, want := err.Error(), "dynplan: invalid execution pipeline: bad target"; got != want {
		t.Errorf("error renders as %q, want %q", got, want)
	}
	if !errors.Is(err, ErrPipeline) {
		t.Error("PipelineError does not unwrap to ErrPipeline")
	}
}

// TestFacadeFileIsTheOnlyEntryPoint is the CI lint gate's in-tree twin:
// no file may declare a Database.Execute* method — Exec is the one entry
// point — and the recording-suppression context hack must not reappear
// anywhere. (The grep gate in ci.yml enforces the same rules without a Go
// toolchain.)
func TestFacadeFileIsTheOnlyEntryPoint(t *testing.T) {
	entry := "func (db *Database) " + "Execute" // split so this file never matches itself
	suppress := "Suppress" + "Recording"
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data := string(raw)
		if strings.Contains(data, entry) {
			t.Errorf("%s declares a Database.Execute* method; Exec is the one entry point", f)
		}
		if !strings.HasSuffix(f, "_test.go") && strings.Contains(data, suppress) {
			t.Errorf("%s references the deleted %s context hack; recording exclusivity is structural now", f, suppress)
		}
	}
}
