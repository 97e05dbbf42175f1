package dynplan

// The public execution API: Exec is the one entry point. It classifies
// the query target, checks that the options fit it, and runs the one
// stage stack of the execution pipeline (pipeline.go), whose stages
// switch on from the options. No execution logic lives here, and the CI
// lint gate forbids any Database.Execute* method, so a new execution
// feature must be a pipeline stage — one seam, every path.

import (
	"context"
	"fmt"

	"dynplan/internal/exec"
	"dynplan/internal/physical"
	"dynplan/internal/plancache"
)

// ExecOptions select the pipeline stages a query runs through. The zero
// value executes the target directly: resolved plans run as-is, modules
// are activated once.
type ExecOptions struct {
	// Governed routes the query through admission control and the memory
	// grant broker (SetGovernor): the query waits for an execution slot
	// (bounded queue, load shedding with ErrAdmission), receives a memory
	// grant the broker may degrade below b.MemoryPages — the grant, not
	// the caller's number, feeds choose-plan resolution, so start-up
	// processing picks low-memory branches under pressure — runs under
	// the governor's per-query deadline, and releases its grant on every
	// exit path. The result's Admission field reports the negotiation.
	// Without an installed governor the admission stages pass through
	// unchanged.
	Governed bool
	// Resilient enables the retrying fallback executor — the run-time
	// payoff of carrying alternatives in the plan. Each attempt activates
	// the module and executes the chosen plan; when it fails, the
	// failure's classification decides the recovery:
	//
	//   - ErrTransientIO: the same plan is retried — transient faults heal
	//     after a bounded number of touches, so each retry makes progress.
	//   - ErrInsufficientMemory: the memory grant is downgraded to what is
	//     actually available, the branches the failed attempt picked are
	//     excluded, and activation re-resolves the choose-plans for the
	//     reduced memory.
	//   - Permanent faults and operator panics: the picked branches are
	//     excluded so re-activation steers onto sibling alternatives; with
	//     none left the failure is final. An installed circuit breaker
	//     (SetGovernor) is charged with the relation the fault was raised
	//     at, and relations whose circuits are open are excluded up front —
	//     if that leaves no feasible plan the query fails fast with
	//     ErrCircuitOpen.
	//   - ErrCanceled / ErrDeadlineExceeded: never retried.
	//
	// When the exclusions leave no feasible plan they are forgiven, since
	// a transiently-poisoned branch may have healed. Every alternative
	// computes the same result (the choose-plan invariant), so a fallback
	// success returns exactly the fault-free rows. Retries pause under
	// Policy's capped exponential backoff with deterministic jitter; the
	// result's Retries, BranchSwitched, FaultsAbsorbed, Backoffs, and
	// EffectiveMemoryPages report what the execution absorbed. Requires a
	// *Module target — fallback needs alternatives to steer onto.
	Resilient bool
	// Policy bounds the Resilient retry loop; the zero value selects the
	// defaults (see RetryPolicy).
	Policy RetryPolicy
	// Adaptive runs a *Plan with run-time choose-plan decisions (§7):
	// base-relation subplans materialize first, observed cardinalities
	// correct the estimates, and only then do the remaining choose-plans
	// resolve. The result's Adaptive field carries the account, with the
	// materialization I/O charged to it. Mutually exclusive with Governed
	// and Resilient.
	Adaptive bool
	// Reopt enables mid-query re-optimization: cardinality guards at
	// materialization points, safe plan switching / re-planning on a
	// violation, a per-query deadline, and the progress watchdog (see
	// ReoptPolicy). Mutually exclusive with Adaptive — run-time decisions
	// already observe before deciding.
	Reopt *ReoptPolicy
	// Parallel enables intra-query parallelism: at activation the memory
	// grant sets the worker count (one worker per 16 granted pages, capped
	// by MaxDOP), and the plan runs with partitioned parallel scans and
	// symmetric streaming hash joins when the cost model prices that below
	// serial execution — degree of parallelism is a costed alternative,
	// selected the way low-memory choose-plan branches are. Answers are
	// digest-identical to serial execution. The result's Parallel field
	// reports the selection. Mutually exclusive with Adaptive.
	Parallel bool
	// MaxDOP caps the worker count Parallel may choose; 0 selects the
	// default of 4.
	MaxDOP int
	// WorkerRetry bounds the per-worker retry loop each exchange worker
	// runs its partition under when Parallel is set: a retryable fault
	// re-runs only that worker's partition, invisibly to the other
	// workers. Nil selects the defaults (3 attempts, 100µs base backoff);
	// MaxAttempts 1 disables worker retry, making every worker fault
	// escalate immediately.
	WorkerRetry *WorkerRetryPolicy
	// Degrade parameterizes the graceful-degradation ladder that catches
	// faults escalating past worker retry: halve the DOP and re-run,
	// down to serial, before the whole-query remedies fire. Nil enables
	// the ladder with defaults; Degrade.Disabled turns it off. Only
	// meaningful with Parallel.
	Degrade *DegradePolicy
	// Tenant names the identity the query runs under. The governor's
	// per-tenant admission slots and grant quotas key on it (see
	// GovernorConfig.TenantSlots), and it rides the result, the /queries
	// records, and the per-tenant admission stats in /metrics. Empty runs
	// the query anonymously, outside any per-tenant accounting.
	Tenant string
	// cacheKey and cacheHit carry the plan-cache provenance of a prepared
	// execution (PreparedQuery.Exec): which cache entry the module came
	// from, and whether it was a hit. Unexported — only the prepare path
	// sets them.
	cacheKey *plancache.Key
	cacheHit bool
	// Trace builds an end-to-end span tree for this query regardless of
	// the database-wide EnableTracing switch: one span per pipeline stage,
	// reopt attempt, degradation rung, and exchange worker, with wait
	// states attributed. The result's TraceID and Trace fields carry it,
	// and the observatory's /traces ring retains it when enabled.
	Trace bool
}

// WorkerRetryPolicy bounds the per-worker retry loop inside exchange
// operators; see ExecOptions.WorkerRetry.
type WorkerRetryPolicy = exec.WorkerRetryPolicy

// DegradePolicy parameterizes the degradation ladder above parallel
// execution; see ExecOptions.Degrade.
type DegradePolicy struct {
	// Disabled turns the ladder off: faults that escape worker retry
	// escalate straight to the whole-query remedies at full width.
	Disabled bool
	// MinDOP floors the descent (0 or 1: the ladder may fall all the way
	// to serial execution).
	MinDOP int
}

// Exec is the single execution entry point: it runs query q — a *Plan,
// *Module, *Activation, or resolved plan node — under the bindings,
// through the pipeline stages the options switch on. Once the context is
// canceled or its deadline passes, execution stops within a bounded
// number of operator calls with an error wrapping ErrCanceled or
// ErrDeadlineExceeded. Bindings outside their domain fail with
// ErrInvalidBindings before any stage runs; incompatible combinations (a
// Resilient non-module, an Adaptive non-plan) fail fast with an error
// wrapping ErrPipeline.
func (db *Database) Exec(ctx context.Context, q any, b Bindings, o ExecOptions) (*ExecResult, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	st := &execState{db: db, b: b, mem: b.MemoryPages, run: runStatic,
		pol: o.Policy, reopt: o.Reopt,
		par: o.Parallel, maxDOP: o.MaxDOP, wpol: o.WorkerRetry, deg: o.Degrade,
		traceOn: o.Trace, tenant: o.Tenant, cacheKey: o.cacheKey, cacheHit: o.cacheHit}
	if o.Governed {
		st.on |= onGoverned
	}
	if o.Resilient {
		st.on |= onResilient
	}
	if o.Reopt != nil {
		st.on |= onReopt
	}
	switch t := q.(type) {
	case *Module:
		st.module = t
		st.on |= onModule
	case *Plan:
		if o.Adaptive {
			st.root = t.Root()
			st.run = runAdaptive
			break
		}
		if t.IsDynamic() {
			return nil, fmt.Errorf("dynplan: cannot execute a dynamic plan directly; build its Module and Activate it first")
		}
		// The plan carries its compile-time predicted cost interval; the
		// observatory's plan-level calibration verdict checks against it.
		st.root = t.Root()
		st.planCost = t.res.Cost
	case *Activation:
		st.root = t.Chosen()
	case *physical.Node:
		st.root = t
	default:
		return nil, &PipelineError{Reason: fmt.Sprintf("cannot execute a %T; pass a *Plan, *Module, *Activation, or a resolved plan node", q)}
	}
	if o.Adaptive {
		if _, ok := q.(*Plan); !ok {
			return nil, &PipelineError{Reason: fmt.Sprintf("the Adaptive option requires a *Plan, not a %T", q)}
		}
		if o.Governed || o.Resilient {
			return nil, &PipelineError{Reason: "the Adaptive option excludes Governed and Resilient; run-time decisions have their own recovery"}
		}
		if o.Reopt != nil {
			return nil, &PipelineError{Reason: "the Adaptive option excludes Reopt; run-time decisions already observe cardinalities before deciding"}
		}
		if o.Parallel {
			return nil, &PipelineError{Reason: "the Adaptive option excludes Parallel; run-time decisions materialize serially by design"}
		}
	}
	if o.Resilient && st.module == nil {
		return nil, &PipelineError{Reason: fmt.Sprintf("the Resilient option requires a *Module, not a %T; fallback needs alternatives to steer onto", q)}
	}
	return st.exec(ctx)
}
