package main

import (
	"sort"
	"time"

	"dynplan"
)

// span is one timed interval of a request. Spans of one request are
// stored contiguously; Parent indexes into the same request's spans (-1
// for a top-level span). Start and End are nanoseconds since the
// recorder's epoch.
type span struct {
	Name string
	// Kind is "bench" for the benchmark's own spans and the program's
	// span kind (stage, attempt, replan, rung, exchange, worker) for
	// spans grafted from an ExecResult's trace.
	Kind       string
	Parent     int32
	Start, End int64
	// Waits carries the program's attributed waits (admission-queue,
	// grant, exchange-channel, replan-planning) in nanoseconds.
	Waits map[string]int64
}

// benchKind marks the benchmark's own spans.
const benchKind = "bench"

// request is one request's spans.
type request struct {
	Client int
	Spans  []span
}

// recorder keeps one client's spans in memory until the run ends; it is
// owned by a single goroutine, so it needs no lock. A nil *recorder
// records nothing, which is how untraced runs skip tracing at no cost.
type recorder struct {
	epoch  time.Time
	client int
	reqs   []request
	cur    *request
}

// begin starts a new request.
func (r *recorder) begin() {
	if r == nil {
		return
	}
	r.reqs = append(r.reqs, request{Client: r.client})
	r.cur = &r.reqs[len(r.reqs)-1]
}

// open starts a span under parent and returns its index.
func (r *recorder) open(name string, parent int32) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.cur.Spans = append(r.cur.Spans, span{Name: name, Kind: benchKind, Parent: parent, Start: now, End: -1})
	return int32(len(r.cur.Spans) - 1)
}

// close ends the span at index i.
func (r *recorder) close(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.cur.Spans[i].End = time.Since(r.epoch).Nanoseconds()
}

// rename relabels span i once its outcome is known (a Prepare becomes a
// hit or a miss).
func (r *recorder) rename(i int32, name string) {
	if r == nil || i < 0 {
		return
	}
	r.cur.Spans[i].Name = name
}

// graft attaches a program span tree (the pipeline stage spans of an
// ExecOptions.Trace run) under span parent, or at the top level when
// parent is -1. The program's offsets are relative to its own trace
// start, which lies inside the parent span, so the tree is anchored at
// the parent's start; only positions relative to each other matter for
// self time.
func (r *recorder) graft(parent int32, rec *dynplan.TraceRecord) {
	if r == nil || rec == nil || rec.Root == nil {
		return
	}
	var base int64
	if parent >= 0 {
		base = r.cur.Spans[parent].Start
	}
	var add func(s *dynplan.TraceSpan, p int32)
	add = func(s *dynplan.TraceSpan, p int32) {
		sp := span{Name: s.Name, Kind: s.Kind, Parent: p, Start: base + s.StartNanos, End: base + s.StartNanos + s.DurationNanos}
		for _, w := range s.Waits {
			if sp.Waits == nil {
				sp.Waits = make(map[string]int64, len(s.Waits))
			}
			sp.Waits[w.Kind] += w.Nanos
		}
		r.cur.Spans = append(r.cur.Spans, sp)
		idx := int32(len(r.cur.Spans) - 1)
		for _, c := range s.Children {
			add(c, idx)
		}
	}
	add(rec.Root, parent)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other (parallel exchange workers) are counted once, by merging their
// intervals, and a child sticking out of its parent is clipped.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	for i, s := range spans {
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := spans[k].Start, spans[k].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
