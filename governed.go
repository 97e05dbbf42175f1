package dynplan

import (
	"time"

	"dynplan/internal/governor"
)

// GovernorConfig parameterizes the database's resource governor: the
// memory grant broker, admission control, per-query deadlines, and the
// per-relation circuit breaker. The zero value of any knob selects its
// default (see the field comments).
type GovernorConfig struct {
	// TotalPages is the buffer-page pool all concurrent queries draw their
	// memory grants from (default 256). The paper binds "memory available"
	// at start-up (§4); under concurrency that binding is whatever the
	// broker can grant when the query starts.
	TotalPages float64
	// MinGrantPages is the floor a grant can be degraded to under pressure
	// (default 8). A query asking for more may receive less — down to this
	// floor — and its choose-plan operators resolve against the degraded
	// grant, picking low-memory alternatives (§6.2's graceful degradation).
	MinGrantPages float64
	// MaxConcurrent bounds the queries executing at once (default 8).
	MaxConcurrent int
	// MaxQueued bounds the admission queue beyond the executing set
	// (default 2×MaxConcurrent); arrivals beyond it are shed immediately
	// with ErrAdmission.
	MaxQueued int
	// QueueTimeout bounds the wait for an execution slot and, separately,
	// for a memory grant (default 1s); expiry sheds the query with
	// ErrAdmission.
	QueueTimeout time.Duration
	// Deadline, when positive, is the per-query execution deadline; expiry
	// surfaces as ErrDeadlineExceeded through the context plumbing.
	Deadline time.Duration
	// TenantSlots, when positive, caps how many queries any single tenant
	// may have past admission at once; a flooding tenant's excess
	// arrivals wait at (or are shed from) its own gate, ahead of the
	// shared queue, so one hot tenant cannot starve the others. Queries
	// without an ExecOptions.Tenant bypass the gate.
	TenantSlots int
	// TenantPages, when positive, caps one tenant's total outstanding
	// memory grants; requests beyond the remaining quota are clamped, and
	// shed with ErrAdmission when the remainder cannot fund
	// MinGrantPages.
	TenantPages float64
	// BreakerThreshold is how many consecutive permanent faults on one
	// relation open its circuit (default 3); BreakerCooldown is how many
	// executions the open circuit blocks before half-opening for a probe
	// (default 8). The breaker is clock-free, so chaos runs with fixed
	// seeds reproduce its decisions exactly.
	BreakerThreshold int
	BreakerCooldown  int
}

// GovernorStats is a snapshot of the governor's counters; see
// internal/governor.Stats for field documentation.
type GovernorStats = governor.Stats

// SetGovernor installs a resource governor on the database: subsequent
// Governed executions pass through admission control, draw their memory
// grants from the shared pool, run under the configured deadline, and
// feed the per-relation circuit breaker Resilient executions consult.
// Call it before queries start; replacing a governor mid-traffic leaves
// in-flight tickets on the old one.
func (db *Database) SetGovernor(cfg GovernorConfig) {
	db.gov = governor.New(governor.Config{
		TotalPages:    cfg.TotalPages,
		MinGrantPages: cfg.MinGrantPages,
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueued:     cfg.MaxQueued,
		QueueTimeout:  cfg.QueueTimeout,
		Deadline:      cfg.Deadline,
		TenantSlots:   cfg.TenantSlots,
		TenantPages:   cfg.TenantPages,
	})
	db.breaker = governor.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
}

// ClearGovernor removes the governor and circuit breaker; Governed
// executions revert to ungoverned ones.
func (db *Database) ClearGovernor() {
	db.gov = nil
	db.breaker = nil
}

// GovernorStats returns a snapshot of the governor's admission, queue,
// shed, and grant-broker counters; the zero value when no governor is
// installed.
func (db *Database) GovernorStats() GovernorStats {
	if db.gov == nil {
		return GovernorStats{}
	}
	return db.gov.Stats()
}

// OutstandingGrantPages returns the pages currently granted and not yet
// released — zero whenever no governed query is in flight, the invariant
// the chaos harness asserts.
func (db *Database) OutstandingGrantPages() float64 {
	if db.gov == nil {
		return 0
	}
	return db.gov.Broker().Outstanding()
}

// ResizeMemoryPool changes the grant pool size at run-time — the knob a
// shrinking-memory scenario turns. Outstanding grants are unaffected; new
// grants see the reduced pool.
func (db *Database) ResizeMemoryPool(totalPages float64) {
	if db.gov != nil {
		db.gov.ResizePool(totalPages)
	}
}

// BreakerTrips returns how many times each relation's circuit has opened;
// empty when no breaker is installed or none has tripped.
func (db *Database) BreakerTrips() map[string]int64 {
	return db.breaker.Trips()
}
