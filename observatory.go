package dynplan

import (
	"net/http"
	"time"

	"dynplan/internal/obs"
)

// The workload observatory's types, re-exported for callers outside the
// module's internal tree. See internal/obs for the full documentation.
type (
	// MetricsSnapshot is the observatory's point-in-time view: query and
	// error counts, retry/shed/breaker tallies, latency and I/O histogram
	// quantiles, and per-operator / per-relation aggregates — the payload
	// the /metrics endpoint serves.
	MetricsSnapshot = obs.RegistrySnapshot
	// HistogramSnapshot is one log-bucketed histogram's summary (count,
	// sum, max, p50/p95/p99).
	HistogramSnapshot = obs.HistogramSnapshot
	// CalibrationReport aggregates interval-calibration verdicts for one
	// (kind, operator, relation) key across the workload.
	CalibrationReport = obs.CalibrationReport
	// CalibrationVerdict is one predicted-vs-actual interval check: the
	// band the optimizer promised, the observed actual, the q-error, and
	// whether the actual fell outside the band.
	CalibrationVerdict = obs.CalibrationVerdict
)

// EnableObservatory turns on the workload observatory: a long-lived
// metrics registry every subsequent Exec call records into — query
// latency, queue wait, pages read, retries, sheds, and breaker trips as
// log-bucketed histograms and counters, per-operator and per-relation
// aggregates, a recent-query log, and the interval-calibration table
// comparing each operator's predicted cardinality interval and the plan's
// predicted cost interval against observed actuals (the paper's §5
// correctness condition, checked on real executions). It implies
// per-operator collection (EnableObservability). Inspect the registry via
// MetricsSnapshot, Calibration, RecentQueries, or serve it over HTTP with
// Handler. When disabled (the default), every recording hook reduces to
// one pointer comparison and allocates nothing.
func (db *Database) EnableObservatory() { db.EnableObservatoryWithLog(0) }

// EnableObservatoryWithLog is EnableObservatory with an explicit
// recent-query ring-buffer capacity (0 selects the default, 256).
// Re-enabling installs a fresh registry, discarding prior aggregates.
func (db *Database) EnableObservatoryWithLog(logCap int) {
	db.metrics.Store(obs.NewRegistry(logCap))
	db.observing.Store(true)
}

// DisableObservatory removes the registry (dropping its aggregates) and
// turns per-operator collection back off.
func (db *Database) DisableObservatory() {
	db.metrics.Store(nil)
	db.observing.Store(false)
}

// MetricsSnapshot captures the observatory's current state; nil while the
// observatory is disabled.
func (db *Database) MetricsSnapshot() *MetricsSnapshot {
	return db.metrics.Load().Snapshot()
}

// Calibration returns the workload's interval-calibration reports, worst
// offenders first (largest max q-error, then violation rate): which
// operators and relations the optimizer's predicted intervals failed on,
// and by how much. Nil while the observatory is disabled.
func (db *Database) Calibration() []CalibrationReport {
	return db.metrics.Load().CalibrationReports()
}

// RecentQueries returns the observatory's retained run records, oldest
// first, up to max entries (all when max <= 0); nil while disabled.
func (db *Database) RecentQueries(max int) []*RunRecord {
	return db.metrics.Load().RecentQueries(max)
}

// RecentTraces returns the observatory's retained query span trees,
// oldest first, up to max entries (all when max <= 0); nil while the
// observatory is disabled. Populated only while tracing is also on
// (EnableTracing or ExecOptions.Trace).
func (db *Database) RecentTraces(max int) []*TraceRecord {
	return db.metrics.Load().RecentTraces(max)
}

// Handler serves the observatory over HTTP: /metrics (JSON snapshot),
// /calibration (JSON reports, worst first), /queries (recent run records
// as JSON lines; ?n=K limits to the newest K), and /traces (recent query
// span trees as JSON lines; ?n=K likewise). While the observatory is
// disabled the endpoints answer 503, so the handler can be mounted once
// and survive Enable/Disable cycles.
func (db *Database) Handler() http.Handler {
	return obs.Handler(func() *obs.Registry { return db.metrics.Load() })
}

// querySampleOf condenses a successful execution into the per-query tally
// the registry records.
func querySampleOf(res *ExecResult, wall time.Duration) obs.QuerySample {
	s := obs.QuerySample{
		WallNanos:     wall.Nanoseconds(),
		Rows:          int64(len(res.Rows)),
		SeqPageReads:  res.SeqPageReads,
		RandPageReads: res.RandPageReads,
		PageWrites:    res.PageWrites,
		TupleOps:      res.TupleOps,
		Retries:       int64(res.Retries),
		BackoffNanos:  res.BackoffTotal.Nanoseconds(),
	}
	if res.Admission != nil {
		s.QueueWaitNanos = res.Admission.QueueWaitNanos
	}
	return s
}

// queryLogRecord builds the run record the observatory's query log
// retains for one execution (or one failure). traceID cross-references
// the query's span tree when tracing was on; it is threaded explicitly
// because the record is logged before the trace is sealed onto the
// result (and failures carry no result at all).
func (db *Database) queryLogRecord(res *ExecResult, wall time.Duration, err error, traceID string) *obs.RunRecord {
	if err != nil {
		return &obs.RunRecord{
			Name:      "query",
			WallNanos: wall.Nanoseconds(),
			UnixNanos: time.Now().UnixNano(),
			Error:     err.Error(),
			TraceID:   traceID,
		}
	}
	rec := res.RunRecordFor("query", "", db.sys.params)
	rec.WallNanos = wall.Nanoseconds()
	rec.UnixNanos = time.Now().UnixNano()
	rec.TraceID = traceID
	return rec
}
