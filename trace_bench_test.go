package dynplan

import (
	"context"
	"testing"

	"dynplan/internal/obs"
)

// BenchmarkTraceOverhead pins the cost of span tracing at both ends of
// the switch. With tracing off, the per-stage hook is a single pointer
// comparison folded into the composed pipeline closures — the "disabled"
// case asserts the dispatch still allocates nothing, so queries that
// never asked for a trace pay nothing for the tracer's existence. With
// tracing on, the "traced" case measures the real price of building a
// span tree per query: the trace header, one arena for the spans, and
// the finish walk — the figure the overhead ablation in EXPERIMENTS.md
// quotes.
func BenchmarkTraceOverhead(b *testing.B) {
	db := New().OpenDatabase()
	stub := &ExecResult{}
	run := func(ctx context.Context, st *execState) (*ExecResult, error) {
		return stub, nil
	}
	ctx := context.Background()

	var allocs float64
	b.Run("disabled", func(b *testing.B) {
		st := &execState{db: db, run: run}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if allocs = testing.AllocsPerRun(100, func() {
			_, _ = st.exec(ctx)
		}); allocs != 0 {
			b.Fatalf("untraced dispatch allocates %v objects per query, want 0", allocs)
		}
	})

	// Per-query opt-in with Governed and Resilient switched on: every
	// stage that runs opens and closes a span, the trace is sealed, and
	// the record is assembled — the worst-case fixed cost a traced query
	// pays beyond its real work.
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := &execState{db: db, run: run, mem: 64, on: onGoverned | onResilient, traceOn: true}
			if _, err := st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	if benchRecordDir() != "" {
		rec := &obs.RunRecord{
			Name:  "trace-overhead",
			Query: "span-tracing overhead of the execution pipeline (stubbed run stage)",
			Metrics: map[string]float64{
				"disabled-allocs": allocs,
				"traced-stages":   float64(tracedGovernedStages(b)),
				"arena-spans":     48,
			},
			// Structural record: drift in the zero-alloc guarantee for the
			// disabled path or in the traced stack shape shows up in
			// review; no simulated cost is gated.
			SimCostTotal: 0,
		}
		writeBenchRecord(b, rec)
	}
}

// tracedGovernedStages counts the stage spans of one real traced
// Governed+Resilient execution of a module behind an installed governor.
func tracedGovernedStages(b *testing.B) int {
	sys, q := resilChainSystem(b, 2)
	dyn, err := sys.OptimizeDynamic(q, Uncertainty{})
	if err != nil {
		b.Fatal(err)
	}
	mod, err := dyn.Module()
	if err != nil {
		b.Fatal(err)
	}
	db := resilDatabase(b, sys)
	db.SetGovernor(GovernorConfig{TotalPages: 256, MaxConcurrent: 2})
	res, err := db.Exec(context.Background(), mod, resilBindings(2, 0.3, 64),
		ExecOptions{Governed: true, Resilient: true, Trace: true})
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	res.Trace.Root.Walk(func(s *TraceSpan) {
		if s.Kind == obs.SpanStage {
			n++
		}
	})
	return n
}
