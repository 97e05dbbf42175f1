package dynplan

// The execution pipeline: Database.Exec routes every query through one
// stack of composable stages assembled here, so admission, memory grants,
// breaker consultation, retry/backoff, choose-plan activation, execution,
// and workload recording exist exactly once instead of being hand-wired
// per entry point. The paper's start-up-time processing (§4) is the
// Activate stage: the memory binding it resolves choose-plans against is
// whatever the Grant stage actually obtained, not what the caller asked
// for.
//
// A stage is a middleware function over the shared per-query execState;
// the innermost stage runs the resolved plan. There is one stack, in the
// canonical order
//
//	Record → Admit → Grant → Breaker → Retry → Degrade → Reopt → Activate → Run
//
// composed once, and each stage carries a predicate over execState: when
// the query's options give a stage nothing to do, it is skipped — no
// work, no span.
//
//	stage                  runs when
//	Record, Degrade, Run   always
//	Admit, Grant           ExecOptions.Governed
//	Breaker, Retry         ExecOptions.Resilient
//	Reopt                  ExecOptions.Reopt is set
//	Activate               the target is a *Module
//
// Record is always the single outermost stage, which is what makes
// exactly-one-recording per query structural: there is no inner layer
// left that could double-count, so no context mark suppressing inner
// recording is needed.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dynplan/internal/adaptive"
	"dynplan/internal/bindings"
	"dynplan/internal/cost"
	"dynplan/internal/degrade"
	"dynplan/internal/exec"
	"dynplan/internal/governor"
	"dynplan/internal/obs"
	"dynplan/internal/physical"
	"dynplan/internal/plan"
	"dynplan/internal/plancache"
	"dynplan/internal/qerr"
	"dynplan/internal/reopt"
	"dynplan/internal/storage"
)

// ErrPipeline reports an Exec call whose options do not fit its query
// target or each other. Match it with errors.Is.
var ErrPipeline = errors.New("dynplan: invalid execution pipeline")

// PipelineError carries the rule an Exec call broke; it unwraps to
// ErrPipeline.
type PipelineError struct {
	// Reason is the violated rule.
	Reason string
}

func (e *PipelineError) Error() string {
	return "dynplan: invalid execution pipeline: " + e.Reason
}

func (e *PipelineError) Unwrap() error { return ErrPipeline }

// execState is one query's mutable state, threaded through every stage of
// the stack. Exactly one of module (resolved per attempt by Activate) or
// root (pre-resolved) identifies the plan; run executes it.
type execState struct {
	db *Database

	// module is the dynamic access module to activate per attempt; nil
	// when the target is already a resolved plan.
	module *Module
	// root is the resolved plan the Run stage executes; the Activate
	// stage overwrites it per attempt when module is set.
	root *physical.Node
	// planCost is the compile-time predicted cost interval the
	// calibration layer checks observed executions against (zero: the
	// model's own evaluation of the resolved plan substitutes).
	planCost cost.Cost

	// b is the caller's bindings; mem is the memory the next activation
	// and execution run under — initially b.MemoryPages, rewritten by the
	// Grant stage (the broker's grant) and the Retry stage (downgrades).
	b   Bindings
	mem float64
	// on selects the optional stages that run; pol bounds the Retry stage.
	on  stageSet
	pol RetryPolicy
	// run is the terminal executor (runStatic or runAdaptive).
	run func(ctx context.Context, st *execState) (*ExecResult, error)
	// par enables intra-query parallelism in the Run stage; maxDOP caps
	// the worker count the grant may fund (0: the default cap). The DOP
	// decision lives inside runStatic rather than in a stage of its own:
	// it is part of resolving the plan against the grant, exactly like
	// choose-plan resolution, and keeping it there leaves non-parallel
	// dispatch byte-identical.
	par    bool
	maxDOP int
	// wpol bounds the per-worker retry loop each exchange worker runs its
	// partition under (nil: the exec defaults); deg parameterizes the
	// degradation ladder above the Run stage.
	wpol *WorkerRetryPolicy
	deg  *DegradePolicy
	// degCap is the DOP ceiling the degradation ladder has imposed (0:
	// none); lastDOP is the DOP the most recent execution actually ran
	// with — the rung the ladder steps down from.
	degCap  int
	lastDOP int

	// gov and adm are the Admit stage's governor snapshot and claimed
	// slot; ticket is the Grant stage's memory claim.
	gov    *governor.Governor
	adm    *governor.Admission
	ticket *governor.Ticket
	// blocked is the Breaker stage's snapshot of open-circuit relations.
	blocked map[string]bool
	// avoid marks plan nodes failed attempts have poisoned; written by
	// Retry, consumed by Activate.
	avoid map[*physical.Node]bool
	// rep is the latest activation's report; firstPicked and
	// branchSwitched track choose-plan drift across attempts.
	rep            *plan.StartupReport
	firstPicked    []*physical.Node
	branchSwitched bool
	// attempt counts executions (1-based inside Retry); retries,
	// backoffs, and retryTrace accumulate the recovery account.
	attempt    int
	retries    int
	backoffs   []time.Duration
	retryTrace []obs.ChoiceTrace

	// reopt parameterizes the Reopt stage; rc is the stage's live controller
	// (set for the duration of one reoptStage invocation, consumed by
	// Activate for corrected bindings and by Run for guards and temps).
	reopt *ReoptPolicy
	rc    *reopt.Controller
	// skipActivate makes Activate pass through: a re-planned or degraded
	// root is already resolved and must not be overwritten by the module.
	skipActivate bool
	// acc, when set by the Reopt stage, is the accountant the Run stage
	// must use — the progress watchdog polls its tuple counter.
	acc *storage.Accountant

	// tenant is the identity the query runs under (ExecOptions.Tenant):
	// the governor's per-tenant admission slots and grant quotas key on
	// it, and it rides the result and the observatory's run records.
	tenant string
	// cacheKey identifies the plan-cache entry the executed module came
	// from (nil outside prepared execution); cacheHit reports whether it
	// was served from the cache. A mid-query re-plan invalidates the
	// entry — the cached module's estimates have been proven wrong.
	cacheKey *plancache.Key
	cacheHit bool

	// traceOn requests a span tree for this query (ExecOptions.Trace);
	// trace is the live tracer (nil when tracing is off — the disabled
	// fast path is that one pointer comparison) and span the innermost
	// open stage span, the parent each stage hangs its children and wait
	// states under. Only the query's own goroutine moves span; worker
	// goroutines receive their parent span by value.
	traceOn bool
	trace   *obs.Trace
	span    *obs.Span
}

// pipelineFunc is a compiled (sub-)stack: the continuation each stage
// hands the state to.
type pipelineFunc func(ctx context.Context, st *execState) (*ExecResult, error)

// stageFunc is one composable stage: do work, call next (zero or more
// times — Retry calls it per attempt), decorate the result.
type stageFunc func(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error)

// stageAbort wraps an error that must not be retried or reclassified by
// outer stages (an activation refusal rather than a run failure); the
// pipeline entry unwraps it before the caller sees it.
type stageAbort struct{ err error }

func (a *stageAbort) Error() string { return a.err.Error() }
func (a *stageAbort) Unwrap() error { return a.err }

// stageSet holds one bit per predicate of the table at the top of this
// file; Exec sets execState.on from the query's options and target.
type stageSet uint8

const (
	onGoverned  stageSet = 1 << iota // ExecOptions.Governed
	onResilient                      // ExecOptions.Resilient
	onReopt                          // ExecOptions.Reopt is set
	onModule                         // the target is a *Module
)

// stage is one entry of the canonical stack: the name its span carries,
// its implementation, and the predicate bits that must all be set for it
// to run (none: always).
type stage struct {
	name string
	fn   stageFunc
	when stageSet
}

// stages is the canonical stack, outermost first.
var stages = [...]stage{
	{"Record", recordStage, 0},
	{"Admit", admitStage, onGoverned},
	{"Grant", grantStage, onGoverned},
	{"Breaker", breakerStage, onResilient},
	{"Retry", retryStage, onResilient},
	{"Degrade", degradeStage, 0},
	{"Reopt", reoptStage, onReopt},
	{"Activate", activateStage, onModule},
	{"Run", runStage, 0},
}

// pipeline is the canonical stack composed into one call chain, once per
// process: every stage binds to the database's currently configured
// governor, injector, and observatory when the query enters it, so the
// chain holds no per-database state.
var pipeline = compose()

// compose wraps each stage, innermost first, around the continuation
// below it. A stage whose predicate is false hands the state straight to
// next. Otherwise the disabled-tracing branch is one pointer comparison
// and no calls, preserving the 0-allocs/op dispatch
// BenchmarkExecPipelineOverhead pins; the enabled branch opens one stage
// span, threads it through st.span as the parent for everything the
// stage does, and closes it on the way out — wrapper depth mirrors stack
// order, so a trace *is* the pipeline made visible.
func compose() pipelineFunc {
	var next pipelineFunc
	for i := len(stages) - 1; i >= 0; i-- {
		s, inner := stages[i], next
		next = func(ctx context.Context, st *execState) (*ExecResult, error) {
			if st.on&s.when != s.when {
				return inner(ctx, st)
			}
			if st.trace == nil {
				return s.fn(ctx, st, inner)
			}
			parent := st.span
			st.span = st.trace.Start(parent, s.name, obs.SpanStage)
			res, err := s.fn(ctx, st, inner)
			st.span.End()
			st.span = parent
			return res, err
		}
	}
	return next
}

// exec runs the stack over the state, unwrapping stage-internal abort
// markers before the caller sees the error. This is the tracer's single
// construction point (the lint gate pins obs.NewTrace here and in
// internal/obs): when tracing is on — database-wide via EnableTracing or
// per query via ExecOptions.Trace — the query gets a deterministic trace
// ID, every stage below builds the span tree, and the finished record is
// attached to the result and folded into the observatory's /traces ring.
func (st *execState) exec(ctx context.Context) (*ExecResult, error) {
	if st.traceOn || st.db.tracing.Load() {
		st.trace = obs.NewTrace(st.db.nextTraceID())
	}
	res, err := pipeline(ctx, st)
	if err != nil {
		var abort *stageAbort
		if errors.As(err, &abort) {
			res, err = nil, abort.err
		}
	}
	if st.trace != nil {
		rec := st.trace.Finish(err)
		if res != nil {
			res.TraceID = rec.ID
			res.Trace = rec
		}
		st.db.metrics.Load().RecordTrace(rec)
	}
	return res, err
}

// defaultPlanCacheCapacity bounds the shared plan cache; prepared
// statements beyond it evict least-recently-used compiled modules.
const defaultPlanCacheCapacity = 64

// newPlanCache assembles the database's shared plan cache — the single
// construction point (the CI lint gate pins plancache.New here and inside
// internal/plancache), so exactly one cache exists per database. The
// cache mirrors its hit/miss/eviction counters into the observatory
// registry whenever one is enabled.
func newPlanCache(db *Database, capacity int) *plancache.Cache {
	c := plancache.New(capacity)
	c.SetObserver(func(hits, misses, evictions uint64) {
		if reg := db.metrics.Load(); reg.Enabled() {
			reg.PlanCacheHits.Add(int64(hits))
			reg.PlanCacheMisses.Add(int64(misses))
			reg.PlanCacheEvictions.Add(int64(evictions))
		}
	})
	return c
}

// recordStage is the single outermost stage: one query-level sample and
// one run record per query, whatever stages ran below it. Sheds (the
// governor refused the query, so it never started) count apart from
// query errors. When the observatory is disabled the stage is one pointer
// comparison.
func recordStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	reg := st.db.metrics.Load()
	if !reg.Enabled() {
		res, err := next(ctx, st)
		if res != nil {
			res.Tenant = st.tenant
			res.PlanCacheHit = st.cacheHit
		}
		return res, err
	}
	start := time.Now()
	res, err := next(ctx, st)
	wall := time.Since(start)
	if err != nil {
		if errors.Is(err, ErrAdmission) {
			reg.RecordShed()
			reg.RecordTenantShed(st.tenant)
		} else {
			reg.RecordQuery(obs.QuerySample{WallNanos: wall.Nanoseconds(), Failed: true})
			reg.RecordTenantQuery(st.tenant, 0, true)
			reg.LogQuery(st.db.queryLogRecord(nil, wall, err, st.trace.ID()))
		}
		return nil, err
	}
	res.Tenant = st.tenant
	res.PlanCacheHit = st.cacheHit
	var queueWait int64
	if res.Admission != nil {
		queueWait = res.Admission.QueueWaitNanos
	}
	reg.RecordQuery(querySampleOf(res, wall))
	reg.RecordTenantQuery(st.tenant, queueWait, false)
	reg.LogQuery(st.db.queryLogRecord(res, wall, nil, st.trace.ID()))
	return res, nil
}

// admitStage claims an execution slot from the governor; without an
// installed governor the stage (and its Grant partner) pass through, so
// a governed query runs as an ungoverned one would. The
// governor is snapshotted once, so a concurrent ClearGovernor cannot
// split the Admit/Grant pair across two governors.
func admitStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	gov := st.db.gov
	if gov == nil {
		return next(ctx, st)
	}
	var t0 time.Time
	if st.span != nil {
		t0 = time.Now()
	}
	adm, err := gov.AdmitTenant(ctx, st.tenant)
	if st.span != nil {
		st.span.AddWait(obs.WaitAdmissionQueue, time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return nil, err
	}
	st.gov = gov
	st.adm = adm
	return next(ctx, st)
}

// grantStage draws the memory grant for the admitted query: the broker
// may degrade it below the request, and the grant — not the caller's
// number — becomes the memory binding activation resolves choose-plans
// against (§6.2's graceful degradation). The ticket is released on every
// exit path; AdmissionStats report the negotiation on success.
func grantStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	if st.adm == nil {
		return next(ctx, st)
	}
	var t0 time.Time
	if st.span != nil {
		t0 = time.Now()
	}
	ticket, qctx, err := st.adm.Grant(ctx, st.b.MemoryPages)
	if st.span != nil {
		st.span.AddWait(obs.WaitGrant, time.Since(t0).Nanoseconds())
	}
	if err != nil {
		return nil, err
	}
	defer ticket.Release()
	if reg := st.db.metrics.Load(); reg.Enabled() {
		reg.PoolPages.Set(st.gov.Broker().Stats().TotalPages)
	}
	st.ticket = ticket
	st.mem = ticket.Pages
	res, err := next(qctx, st)
	if err != nil {
		return nil, err
	}
	s := st.gov.Stats()
	res.Admission = &obs.AdmissionStats{
		RequestedPages: ticket.Requested,
		GrantedPages:   ticket.Pages,
		Degraded:       ticket.Degraded,
		QueueWaitNanos: ticket.Wait.Nanoseconds(),
		ShedQueueFull:  s.ShedQueueFull,
		ShedTimeout:    s.ShedTimeout,
	}
	return res, nil
}

// breakerStage snapshots which of the module's relations currently have
// open circuits; they sit outside the choice set for this whole
// execution, and consulting the breaker counts one cooldown step per
// blocked relation.
func breakerStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	if st.module != nil {
		st.blocked = st.db.breaker.BlockedSet(st.module.mod.Relations())
	}
	return next(ctx, st)
}

// retryStage is the retrying fallback executor — the run-time payoff of
// carrying alternatives in the plan. Each attempt re-enters the Activate
// stage below it; a failure's classification decides the recovery
// (transient I/O: same plan; insufficient memory: downgrade the grant and
// exclude the picked branches; permanent faults: exclude the picked
// branches and charge the relation's circuit breaker). Retries pause
// under capped exponential backoff with deterministic jitter.
func retryStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	pol := st.pol.withDefaults()
	if st.avoid == nil {
		st.avoid = make(map[*physical.Node]bool)
	}
	inj := st.db.injector()
	absorbedBase := inj.Stats().Absorbed
	rng := rand.New(rand.NewSource(pol.JitterSeed))

	for st.attempt = 1; ; st.attempt++ {
		if err := qerr.FromContext(ctx.Err()); err != nil {
			return nil, err
		}
		res, err := next(ctx, st)
		if err == nil {
			st.db.recordPlanOutcome(st.root, "")
			res.Retries = st.retries
			res.BranchSwitched = st.branchSwitched
			res.FaultsAbsorbed = inj.Stats().Absorbed - absorbedBase
			res.EffectiveMemoryPages = st.mem * inj.MemoryScale()
			res.Backoffs = st.backoffs
			res.BackoffTotal = 0
			for _, d := range st.backoffs {
				res.BackoffTotal += d
			}
			if st.rep != nil {
				// The successful attempt's start-up decision trace, followed
				// by the recovery decisions that led to it.
				res.Decisions = append(st.rep.Trace, st.retryTrace...)
			}
			return res, nil
		}
		var abort *stageAbort
		if errors.As(err, &abort) {
			// Activation refused (infeasible, circuit-open, unbound
			// variables): not a run failure, nothing to classify or retry.
			return nil, err
		}
		if qerr.Canceled(err) {
			return nil, err
		}
		// Charge the failing relation's circuit breaker before deciding
		// whether to retry, so breakers learn from final attempts and from
		// plans with no alternatives too.
		failedRel := ""
		if rel := qerr.Relation(err); rel != "" && !qerr.Retryable(err) {
			failedRel = rel
			st.db.recordPlanOutcome(nil, rel)
		}
		if st.attempt >= pol.MaxAttempts {
			return nil, fmt.Errorf("dynplan: resilient execution gave up after %d attempts: %w", st.attempt, err)
		}
		st.retries++
		var picked []*physical.Node
		if st.rep != nil {
			picked = st.rep.Picked
		}
		var class, response string
		switch {
		case errors.Is(err, qerr.ErrInsufficientMemory):
			class = "insufficient memory"
			if scale := inj.MemoryScale(); scale < 1 {
				// Acknowledge the shrink event: the next activation plans
				// for the memory actually available, so the executor must
				// not discount it a second time.
				st.mem *= scale
				inj.RestoreMemory()
			} else {
				st.mem *= pol.MemoryDowngrade
			}
			for _, n := range picked {
				st.avoid[n] = true
			}
			response = fmt.Sprintf("downgraded grant to %.3g pages, excluding picked branches", st.mem)
		case errors.Is(err, qerr.ErrTransientIO):
			// Retry the same plan: the fault-injection substrate heals
			// transient faults after a bounded number of touches, so the
			// retry gets strictly past the page it tripped on.
			class = "transient I/O"
			response = "retrying the same plan"
		default:
			// Permanent fault, operator panic, or an unclassified failure:
			// only a different branch can help.
			if len(picked) == 0 {
				return nil, fmt.Errorf("dynplan: execution failed with no alternative branches to fall back to: %w", err)
			}
			for _, n := range picked {
				st.avoid[n] = true
			}
			class = "permanent fault"
			response = "excluding picked branches"
			if failedRel != "" {
				response += fmt.Sprintf(" (fault charged to %s)", failedRel)
			}
		}
		d := backoffDelay(pol, rng, st.retries)
		st.backoffs = append(st.backoffs, d)
		st.retryTrace = append(st.retryTrace, obs.NewRetryTrace(st.attempt, class, response, d))
		if err := sleepBackoff(ctx, d); err != nil {
			return nil, err
		}
		st.span.AddWait(obs.WaitRetryBackoff, d.Nanoseconds())
	}
}

// degradeStage is the graceful-degradation ladder (ISSUE 8): parallel
// execution's answer to the paper's premise that a plan must adapt when
// run-time conditions diverge from the ones it was chosen under. A fault
// that escapes an exchange worker's own bounded retries has already
// proven the partition un-runnable at the current width; before the
// whole-query remedies above (memory downgrade, branch switch, full
// retry) fire, the ladder re-runs the query narrower — halving the DOP
// until it reaches serial — because a narrower run re-partitions the
// data, re-reads poisoned pages through healed fault paths, and costs
// strictly less to lose again.
//
// The controller is built fresh per invocation, i.e. per whole-query
// retry attempt, so a ladder never leaks descent across attempts; the
// cap it imposes (st.degCap) persists, so later attempts do not climb
// back to a width that already failed. Faults the ladder cannot remedy
// (see degrade.Decide) pass through untouched, preserving the Retry
// stage's classification authority. Serial executions pass through in
// one branch.
func degradeStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	if !st.par || (st.deg != nil && st.deg.Disabled) {
		return next(ctx, st)
	}
	pol := degrade.Policy{Registry: st.db.metrics.Load()}
	if st.deg != nil {
		pol.MinDOP = st.deg.MinDOP
	}
	dc := degrade.NewController(pol)
	// Each post-decision re-run is wrapped in a rung span named after the
	// ladder step it descends ("dop-halve dop=2"); the first run is not a
	// rung and stays directly under the Degrade span.
	parent := st.span
	var rung *obs.Span
	for {
		res, err := next(ctx, st)
		rung.End()
		st.span = parent
		if err == nil {
			if ev := dc.Events(); len(ev) > 0 {
				res.Degrade = ev
			}
			return res, nil
		}
		var abort *stageAbort
		if errors.As(err, &abort) {
			return nil, err
		}
		if ctx.Err() != nil {
			// The caller's context ended; nothing narrower can run.
			return nil, err
		}
		cap, ok := dc.Decide(err, st.lastDOP)
		if !ok {
			return nil, err
		}
		st.degCap = cap
		if st.trace != nil {
			name := fmt.Sprintf("dop=%d", cap)
			if ev := dc.Last(); ev != nil {
				name = fmt.Sprintf("%s dop=%d", ev.Rung, cap)
			}
			rung = st.trace.Start(parent, name, obs.SpanRung)
			st.span = rung
		}
	}
}

// reoptStage is mid-query re-optimization. Per invocation (i.e. per retry
// attempt above it) it creates one controller owning the re-opt budget and
// the spooled temporaries, arms the per-query deadline, and loops: run the
// plan under a progress watchdog with cardinality guards armed; on a guard
// violation, remedy and re-run. The remedies escalate —
//
//   - switch: re-enter the Activate stage below, which re-resolves the
//     dynamic plan's choose-plans under the observed (corrected)
//     selectivities and splices the temporaries in;
//   - replan: re-enter the optimizer with each temporary registered as a
//     base relation of its observed cardinality, then run the fresh plan
//     (Activate passes through — the root is already resolved);
//   - degrade: budget exhausted; finish the current plan over the
//     temporaries with guards disarmed.
//
// The temporaries are released exactly once on every path by the deferred
// Finish. Non-violation errors pass through untouched, so the Retry stage
// above keeps its classification authority.
func reoptStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	// A previous controller (an earlier retry attempt) may have left a
	// re-planned or degraded root referencing temporaries it released;
	// re-entering Activate below re-resolves the module onto live state.
	st.skipActivate = false
	pol := *st.reopt
	rp := reopt.Policy{
		Config:            st.db.sys.cfg,
		Params:            st.db.sys.params,
		MaxAttempts:       pol.MaxAttempts,
		MaxPlanningTime:   pol.MaxPlanningTime,
		Tolerance:         pol.Tolerance,
		Deadline:          pol.Deadline,
		NoProgressTimeout: pol.NoProgressTimeout,
		Registry:          st.db.metrics.Load(),
		Trace:             st.trace,
		Span:              st.span,
	}
	if pol.Query != nil {
		rp.Query = pol.Query.Logical()
		rp.Config.FinalOrder = pol.Query.OrderBy()
	}
	rc := reopt.NewController(rp)
	st.rc = rc
	defer func() {
		st.rc = nil
		st.acc = nil
		rc.Finish()
	}()
	dctx, cancel := rc.WithDeadline(ctx)
	defer cancel()
	// One accountant spans every attempt: the result must account the
	// violated attempt's partial work and the spool writes, not just the
	// final plan's — the benchmarks report re-optimization's *net* benefit.
	// The watchdog snapshots the tuple counter at each attempt's start, so
	// accumulation never masks a stall.
	st.acc = &storage.Accountant{}
	// Every execution attempt gets its own span under the Reopt stage, so
	// Activate/Run appear exactly once per attempt and the attempts (and
	// the replans between them — spans the controller opens) read off the
	// tree in order.
	parent := st.span
	for attempt := 1; ; attempt++ {
		var asp *obs.Span
		if st.trace != nil {
			asp = st.trace.Start(parent, fmt.Sprintf("reopt-attempt-%d", attempt), obs.SpanAttempt)
			st.span = asp
		}
		attemptCtx, stopWatchdog := rc.StartWatchdog(dctx, st.acc)
		res, err := next(attemptCtx, st)
		stopWatchdog()
		asp.End()
		st.span = parent
		if err == nil {
			res.Reopt = rc.Account()
			return res, nil
		}
		var v *reopt.Violation
		if !errors.As(err, &v) {
			return nil, err
		}
		canSwitch := st.module != nil && !st.skipActivate
		canReplan := rp.Query != nil
		switch rc.Decide(v, canSwitch, canReplan) {
		case reopt.RemedySwitch:
			rc.NoteSwitch(v, "re-activating surviving alternatives under corrected bindings")
		case reopt.RemedyReplan:
			bb := st.b
			bb.MemoryPages = st.mem
			forced, pc, rerr := rc.Replan(dctx, bb.internal())
			if rerr != nil {
				return nil, rerr
			}
			st.root = forced
			st.planCost = pc
			st.skipActivate = true
			if st.cacheKey != nil {
				// The cached module's estimates just forced a re-plan; drop
				// the entry so the next prepared execution compiles against
				// the corrected picture instead of re-tripping the guard.
				st.db.planCache.Invalidate(*st.cacheKey)
			}
		default:
			st.root = rc.DegradeRoot(st.root, "re-optimization budget exhausted; finishing the current plan")
			st.skipActivate = true
		}
	}
}

// activateStage performs start-up-time processing (§4): choose-plan
// decision procedures resolve against the current grant (st.mem) and
// bindings, avoiding branches failed attempts poisoned and relations
// whose circuits are open. When exclusions alone leave no feasible plan,
// they are forgiven (a transiently-poisoned branch may have healed);
// when the circuit breaker alone leaves none, the query fails fast with
// ErrCircuitOpen rather than re-probing a poisoned access path.
func activateStage(ctx context.Context, st *execState, next pipelineFunc) (*ExecResult, error) {
	if st.skipActivate {
		// The Reopt stage installed a re-planned or degraded root that is
		// already resolved; activation would overwrite it.
		return next(ctx, st)
	}
	opts := plan.StartupOptions{Params: st.db.sys.params, Usage: st.module.stats}
	if len(st.avoid) > 0 || len(st.blocked) > 0 {
		avoid, blocked := st.avoid, st.blocked
		opts.Avoid = func(n *physical.Node) bool {
			return avoid[n] || (n.Rel != "" && blocked[n.Rel])
		}
	}
	bb := st.b
	bb.MemoryPages = st.mem
	ib := bb.internal()
	if st.rc != nil {
		// Observed selectivities correct the *cost* side of activation only;
		// execution keeps the caller's bindings — predicate literals are
		// selectivity × domain, and moving them would change the answer.
		ib = st.rc.CorrectBindings(ib)
	}
	reg := st.db.metrics.Load()
	var actStart time.Time
	if reg.Enabled() {
		actStart = time.Now()
	}
	rep, err := st.module.mod.Activate(ib, opts)
	if errors.Is(err, plan.ErrInfeasible) && len(st.avoid) > 0 {
		// Every alternative has failed at least once; forgive the
		// exclusions (breaker-blocked relations stay excluded) and try the
		// remaining choice set again.
		clear(st.avoid)
		rep, err = st.module.mod.Activate(ib, opts)
	}
	if reg.Enabled() {
		// Start-up-time processing is the cost a plan-cache hit still pays;
		// the histogram is what makes "activation ≪ compilation" observable.
		reg.Activation.Record(time.Since(actStart).Nanoseconds())
	}
	if errors.Is(err, plan.ErrInfeasible) && len(st.blocked) > 0 {
		// The circuit breaker alone leaves no feasible plan: fail fast
		// instead of re-probing a poisoned access path.
		return nil, &stageAbort{err: fmt.Errorf("dynplan: circuit breaker excludes %v and no alternative plan remains: %w: %w",
			sortedKeys(st.blocked), qerr.ErrCircuitOpen, err)}
	}
	if err != nil {
		return nil, &stageAbort{err: err}
	}
	if st.attempt <= 1 {
		st.firstPicked = rep.Picked
	} else if !st.branchSwitched && !samePicked(st.firstPicked, rep.Picked) {
		st.branchSwitched = true
	}
	st.rep = rep
	st.root = rep.Chosen
	if st.rc != nil {
		// Splice spooled temporaries in place of already-observed base
		// subplans: the switched-to plan resumes from the finished work.
		st.root = st.rc.Rewrite(st.root)
	}
	st.planCost = st.module.mod.PlanCost()
	res, err := next(ctx, st)
	if err == nil && len(res.Decisions) == 0 {
		// Attach the start-up decision trace; a Retry stage above replaces
		// this with the full trace-plus-recovery account.
		res.Decisions = rep.Trace
	}
	return res, err
}

// runStage is the innermost stage: it hands the resolved plan to the
// terminal executor; there is no next.
func runStage(ctx context.Context, st *execState, _ pipelineFunc) (*ExecResult, error) {
	return st.run(ctx, st)
}

// runStatic is the terminal executor for resolved plans: it compiles the
// plan into Volcano iterators over the simulated store, runs it under the
// context, and assembles the base ExecResult — I/O account, per-operator
// stats tree, plan digest, and interval-calibration verdicts. Every
// attempt counts one execution in the observatory; the query-level sample
// belongs to the Record stage alone.
func runStatic(ctx context.Context, st *execState) (*ExecResult, error) {
	db := st.db
	reg := db.metrics.Load()
	acc := st.acc
	if acc == nil {
		acc = &storage.Accountant{}
	}
	// Each execution collects into its own fresh window: the stats tree
	// describes this run, and concurrent executions of the same plan never
	// share counters. The injector pointer is snapshotted once, so a
	// concurrent InjectFaults/ClearFaults cannot swap it mid-query.
	var collector *obs.Collector
	if db.observing.Load() || reg.Enabled() {
		collector = obs.NewCollector()
	}
	inj := db.injector()
	e := &exec.DB{
		Catalog: db.sys.cat,
		Store:   db.store,
		Indexes: db.indexes,
		Acc:     acc,
		Faults:  inj,
		Obs:     collector,
		Wrap:    db.wrap,
		Trace:   st.trace,
		Span:    st.span,
	}
	bb := st.b
	bb.MemoryPages = st.mem
	ib := bb.internal()
	if st.rc != nil {
		// The Reopt stage's temporaries and cardinality guards. Guard bands
		// are evaluated under the corrected bindings; the execution itself
		// runs under the caller's bindings, untouched.
		e.Temps = st.rc.Temps()
		e.Guards = st.rc.Guard(physical.NewModel(db.sys.params), st.rc.CorrectBindings(ib).Env(), st.root, acc)
	}
	var pe *obs.ParallelExec
	var dop, maxDOP int
	var parReason string
	if st.par {
		// The DOP decision is start-up-time processing in miniature: the
		// grant funds the worker count, and the cost model must price the
		// parallel plan below serial before any goroutine spawns — degree
		// of parallelism as a least-expected-cost alternative, exactly how
		// low-memory choose-plan branches are selected.
		dop, maxDOP, parReason = chooseDOP(db, st.root, ib, st.mem, st.maxDOP)
		if st.degCap > 0 && dop > st.degCap {
			// The degradation ladder has capped the width: a fault already
			// escaped per-worker retry at the wider DOP this query ran with.
			dop = st.degCap
			parReason = "degraded"
		}
		st.lastDOP = dop
		pe = &obs.ParallelExec{}
		if dop > 1 {
			e.Parallel = dop
			e.Retry = st.wpol
			e.Par = pe
		}
	}
	absorbedBefore := inj.Stats().Absorbed
	rows, schema, err := e.RunContext(ctx, st.root, ib)
	if reg.Enabled() {
		reg.Executions.Add(1)
	}
	if err != nil {
		return nil, err
	}
	out := &ExecResult{
		Columns:              schema,
		SeqPageReads:         acc.SeqPageReads(),
		RandPageReads:        acc.RandPageReads(),
		PageWrites:           acc.PageWrites(),
		TupleOps:             acc.TupleOps(),
		FaultsAbsorbed:       inj.Stats().Absorbed - absorbedBefore,
		EffectiveMemoryPages: bb.MemoryPages * inj.MemoryScale(),
	}
	out.Rows = make([][]int64, len(rows))
	for i, r := range rows {
		out.Rows[i] = r
	}
	if pe != nil {
		out.Parallel = pe.Stats(dop, maxDOP, st.mem, st.mem/float64(max(dop, 1)), parReason)
		if reg.Enabled() {
			reg.RecordParallel(out.Parallel)
		}
	}
	if reg.Enabled() {
		// Annotate the resolved tree with the cost model's predicted
		// cardinality intervals under this execution's bindings, then
		// compare each against the observed actuals. When no compile-time
		// plan interval rode along, the model's own evaluation of the
		// resolved plan serves as the cost prediction.
		model := physical.NewModel(db.sys.params)
		predEnv := ib.Env()
		if st.rc != nil {
			predEnv = st.rc.CorrectBindings(ib).Env()
		}
		predicted := exec.AnnotatePredictions(collector, model, predEnv, st.root)
		planCost := st.planCost
		if planCost.Hi <= 0 {
			planCost = predicted
		}
		out.Operators = collector.Tree(st.root)
		out.PlanDigest = obs.Digest(st.root.Format())
		out.Calibration = obs.Calibrate(out.Operators, planCost.Lo, planCost.Hi, out.SimulatedSeconds(db.sys.params))
		reg.RecordOperators(out.Operators)
		reg.RecordCalibration(out.Calibration)
	} else {
		out.Operators = collector.Tree(st.root)
	}
	return out, nil
}

// The grant funds parallelism: one worker per parallelPartitionPages
// granted pages, so a degraded grant throttles the worker count down to
// serial the same way it steers choose-plan onto low-memory branches
// (§6.2's graceful degradation applied to DOP). parallelMaxDOPDefault
// caps the count when ExecOptions.MaxDOP is zero.
const (
	parallelPartitionPages = 16
	parallelMaxDOPDefault  = 4
)

// chooseDOP selects the degree of parallelism for a resolved plan. Two
// gates must pass: the memory grant must fund at least two workers
// (reason "grant-limited" otherwise), and the cost model must price the
// dop-way parallel execution below serial (reason "cost" otherwise) —
// exchange startup and per-row transfer charges make serial cheaper for
// tiny inputs. When both pass, the reason is "grant".
func chooseDOP(db *Database, root *physical.Node, ib *bindings.Bindings, mem float64, maxCap int) (dop, maxDOP int, reason string) {
	maxDOP = maxCap
	if maxDOP <= 0 {
		maxDOP = parallelMaxDOPDefault
	}
	dop = int(mem / parallelPartitionPages)
	if dop > maxDOP {
		dop = maxDOP
	}
	if dop <= 1 {
		return 1, maxDOP, "grant-limited"
	}
	model := physical.NewModel(db.sys.params)
	env := ib.Env()
	serial := model.Evaluate(root, env).Cost
	par := model.ParallelEvaluate(root, env, dop).Cost
	if (par.Lo+par.Hi)/2 >= (serial.Lo+serial.Hi)/2 {
		return 1, maxDOP, "cost"
	}
	return dop, maxDOP, "grant"
}

// runAdaptive is the terminal executor for run-time choose-plan decisions
// (§7): decision procedures materialize base-relation subplans, observe
// their actual cardinalities, and only then resolve the remaining
// choose-plans. The adaptive account rides the ExecResult in its Adaptive
// field.
func runAdaptive(ctx context.Context, st *execState) (*ExecResult, error) {
	db := st.db
	acc := &storage.Accountant{}
	var collector *obs.Collector
	if db.observing.Load() {
		collector = obs.NewCollector()
	}
	e := &exec.DB{
		Catalog: db.sys.cat,
		Store:   db.store,
		Indexes: db.indexes,
		Acc:     acc,
		Ctx:     ctx,
		Faults:  db.injector(),
		Obs:     collector,
		Wrap:    db.wrap,
	}
	res, err := adaptive.Run(e, st.root, st.b.internal(), adaptive.Options{Params: db.sys.params})
	if reg := db.metrics.Load(); reg.Enabled() {
		reg.Executions.Add(1)
	}
	if err != nil {
		return nil, err
	}
	out := &ExecResult{
		Rows:                 res.Rows,
		Columns:              res.Schema,
		SeqPageReads:         acc.SeqPageReads(),
		RandPageReads:        acc.RandPageReads(),
		PageWrites:           acc.PageWrites(),
		TupleOps:             acc.TupleOps(),
		EffectiveMemoryPages: st.mem * db.injector().MemoryScale(),
		Adaptive: &AdaptiveResult{
			Rows:                  res.Rows,
			Columns:               res.Schema,
			Chosen:                res.Chosen,
			Materialized:          res.Materialized,
			ObservedSelectivities: res.Observed,
			PredictedCost:         res.PredictedCost,
			SeqPageReads:          acc.SeqPageReads(),
			RandPageReads:         acc.RandPageReads(),
			PageWrites:            acc.PageWrites(),
			TupleOps:              acc.TupleOps(),
		},
	}
	return out, nil
}
