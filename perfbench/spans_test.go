package main

import (
	"testing"

	"dynplan"
	"dynplan/internal/obs"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100]
	//   a [10,30]      (one grandchild [12,18])
	//   b [20,50]      overlaps a: [10,50] is covered once
	//   c [90,120]     sticks out of root: only [90,100] counts
	// d [200,260] is a second top-level span with no children.
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},
		{Name: "c", Parent: 0, Start: 90, End: 120},
		{Name: "a1", Parent: 1, Start: 12, End: 18},
		{Name: "d", Parent: -1, Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestGraftAndCollect(t *testing.T) {
	rec := &recorder{}
	rec.begin()
	exec := rec.open("Exec", -1)
	rec.cur.Spans[exec].Start, rec.cur.Spans[exec].End = 1000, 2000
	tr := &dynplan.TraceRecord{Root: &dynplan.TraceSpan{
		Name: "Record", Kind: "stage", StartNanos: 0, DurationNanos: 900,
		Children: []*dynplan.TraceSpan{{
			Name: "Admit", Kind: "stage", StartNanos: 100, DurationNanos: 700,
			Waits: []obs.WaitState{{Kind: "admission-queue", Nanos: 50}},
			Children: []*dynplan.TraceSpan{{
				Name: "Run", Kind: "stage", StartNanos: 200, DurationNanos: 400,
				Children: []*dynplan.TraceSpan{
					{Name: "gather", Kind: "exchange", StartNanos: 250, DurationNanos: 300, Concurrent: true},
				},
			}},
		}},
	}}
	rec.graft(exec, tr)
	if n := len(rec.cur.Spans); n != 5 {
		t.Fatalf("grafted request has %d spans, want 5", n)
	}
	if root := rec.cur.Spans[1]; root.Parent != exec || root.Start != 1000 || root.End != 1900 {
		t.Fatalf("grafted root %+v not anchored under Exec", root)
	}
	s := collectSpans(rec.reqs)
	if got := s.dur["Exec"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("Exec duration samples %v, want [1]µs", got)
	}
	for name, want := range map[string]float64{"Record": 0.2, "Admit": 0.3, "Run": 0.1} {
		if got := s.self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("%s self samples %v, want [%g]µs", name, got, want)
		}
	}
	if got := s.waits["admission-queue"]; len(got) != 1 || got[0] != 0.05 {
		t.Errorf("admission wait samples %v, want [0.05]µs", got)
	}
	// The request had no Grant stage, so it contributes no grant sample.
	if got := s.waits["grant"]; len(got) != 0 {
		t.Errorf("grant wait samples %v, want none", got)
	}
	if got := s.waits["exchange-channel"]; len(got) != 1 || got[0] != 0 {
		t.Errorf("exchange wait samples %v, want [0]", got)
	}
	if s.runNS != 400 {
		t.Errorf("Run time %dns, want 400", s.runNS)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	rec.begin()
	sp := rec.open("Exec", -1)
	rec.close(sp)
	rec.rename(sp, "x")
	rec.graft(sp, &dynplan.TraceRecord{Root: &dynplan.TraceSpan{Name: "Record"}})
	if sp != -1 {
		t.Fatalf("nil recorder returned span %d", sp)
	}
}
