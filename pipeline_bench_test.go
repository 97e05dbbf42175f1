package dynplan

import (
	"context"
	"testing"

	"dynplan/internal/obs"
)

// BenchmarkExecPipelineOverhead pins the dispatch cost of the execution
// pipeline: the price every query pays is the composed-closure walk from
// db.Exec to the terminal run function, one predicate check per stage of
// the one stack. The run function is stubbed out, so the benchmark
// measures pure stage dispatch — and the "plain" case asserts it
// allocates nothing with the observatory disabled, keeping the hot path
// as cheap as direct method calls.
func BenchmarkExecPipelineOverhead(b *testing.B) {
	db := New().OpenDatabase()
	stub := &ExecResult{}
	run := func(ctx context.Context, st *execState) (*ExecResult, error) {
		return stub, nil
	}
	ctx := context.Background()

	var allocs float64
	b.Run("plain", func(b *testing.B) {
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
			b.Fatalf("plain dispatch allocates %v objects per query, want 0", allocs)
		}
	})

	// Governed and Resilient without an installed governor or a module:
	// Admit and Grant pass through, Breaker skips (no module), Retry still
	// sets up its policy and jitter source — the worst-case dispatch a
	// query pays before any real work.
	b.Run("governed", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := &execState{db: db, run: run, mem: 64, on: onGoverned | onResilient}
			if _, err := st.exec(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})

	if benchRecordDir() != "" {
		rec := &obs.RunRecord{
			Name:  "exec-pipeline-overhead",
			Query: "stage-dispatch overhead of the execution pipeline (stubbed run stage)",
			Metrics: map[string]float64{
				"stack-stages":    float64(len(stages)),
				"dispatch-allocs": allocs,
			},
			// Structural record: drift in the stack or the zero-alloc
			// guarantee shows up in review; no simulated cost is gated.
			SimCostTotal: 0,
		}
		writeBenchRecord(b, rec)
	}
}
