package dynplan

import "dynplan/internal/qerr"

// Typed execution errors. Every mid-query failure the engine produces
// wraps exactly one of these sentinels (match with errors.Is), so callers
// can distinguish cancellation from retryable resource failures from
// unrecoverable faults. The retrying fallback executor
// (ExecOptions.Resilient) consumes the same taxonomy.
var (
	// ErrCanceled reports that the caller's context was canceled
	// mid-query; the error also wraps context.Canceled.
	ErrCanceled = qerr.ErrCanceled
	// ErrDeadlineExceeded reports that the caller's deadline passed
	// mid-query; the error also wraps context.DeadlineExceeded.
	ErrDeadlineExceeded = qerr.ErrDeadlineExceeded
	// ErrInsufficientMemory reports that the memory grant shrank below
	// what a memory-hungry operator (hash-join build, sort) needs.
	ErrInsufficientMemory = qerr.ErrInsufficientMemory
	// ErrTransientIO reports a page read that failed transiently;
	// reissuing the read is expected to succeed.
	ErrTransientIO = qerr.ErrTransientIO
	// ErrPermanentIO reports an unrecoverable page-read failure.
	ErrPermanentIO = qerr.ErrPermanentIO
	// ErrFaultInjected additionally marks every failure produced by the
	// fault-injection substrate (see Database.InjectFaults).
	ErrFaultInjected = qerr.ErrFaultInjected
	// ErrOperatorPanic reports an operator panic converted to an error at
	// the executor boundary.
	ErrOperatorPanic = qerr.ErrOperatorPanic
	// ErrAdmission reports that the resource governor refused the query —
	// the admission queue was full, or the wait for an execution slot or a
	// memory grant timed out. The query never started; resubmitting under
	// lighter load is expected to succeed.
	ErrAdmission = qerr.ErrAdmission
	// ErrCircuitOpen reports that open per-relation circuit breakers
	// excluded every alternative of the plan, so resilient execution failed
	// fast rather than re-probing a poisoned access path.
	ErrCircuitOpen = qerr.ErrCircuitOpen
	// ErrCardinalityViolation reports that a mid-query cardinality guard
	// observed a materialized row count outside the cost model's predicted
	// band. With a ReoptPolicy active it is remedied mid-flight and never
	// surfaces; without one it fails the query, typed.
	ErrCardinalityViolation = qerr.ErrCardinalityViolation
	// ErrNoProgress reports that the progress watchdog observed no tuples
	// advancing for longer than ReoptPolicy.NoProgressTimeout: the query
	// was stuck, not slow.
	ErrNoProgress = qerr.ErrNoProgress
)

// IsRetryable reports whether re-executing can plausibly succeed:
// transient I/O failures (retry the same plan) and insufficient memory
// (retry an alternative branch under a downgraded grant).
func IsRetryable(err error) bool { return qerr.Retryable(err) }

// IsCanceled reports whether the error stems from context cancellation or
// deadline expiry, directly or wrapped.
func IsCanceled(err error) bool { return qerr.Canceled(err) }

// FailedOperator returns the plan operator a failure was raised at
// ("Hash-Join R1.jh = R2.jl", "File-Scan R2", …), or "" when the error
// carries no operator — cancellation, for example, is a property of the
// whole execution, never of one operator.
func FailedOperator(err error) string { return qerr.Operator(err) }

// FailedRelation returns the base relation a failure was raised at, or ""
// when the error carries none. The resilient executor uses the same
// attribution to charge per-relation circuit breakers.
func FailedRelation(err error) string { return qerr.Relation(err) }
