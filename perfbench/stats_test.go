package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(append([]float64(nil), s...), c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("median of {3,1,2} = %g, want 2", got)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 50); got != 2 {
		t.Errorf("nearest-rank median of {1,2,3,4} = %g, want 2", got)
	}
	if got := percentile([]float64(nil), 95); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestBeyondCountsTailSamples(t *testing.T) {
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	// p95 of 1..200 is 190; ten samples lie above it.
	if got := beyond(s, 95); got != 10 {
		t.Errorf("samples beyond p95 of 200 = %d, want 10", got)
	}
	if got := beyond([]float64{5, 5, 5, 5}, 95); got != 0 {
		t.Errorf("samples beyond p95 of a constant = %d, want 0", got)
	}
}

func TestPartRates(t *testing.T) {
	// One completion every 10ms over a 1s window: every part reads
	// 100/s.
	var parts [numParts]part
	for k := range parts {
		parts[k] = part{n: 10, last: time.Duration(k+1) * 100 * time.Millisecond}
	}
	rates := partRates(parts)
	if len(rates) != numParts {
		t.Fatalf("got %d parts, want %d", len(rates), numParts)
	}
	for _, r := range rates {
		if r < 99.9 || r > 100.1 {
			t.Errorf("part rate %g, want 100", r)
		}
	}
	// Long requests, fewer than one per part: completions at 250, 500,
	// 750 and 1000ms land in parts 2, 5, 7 and 9; the empty parts are
	// skipped and the others measure between completions, 4 per second.
	parts = [numParts]part{}
	for i, k := range []int{2, 5, 7, 9} {
		parts[k] = part{n: 1, last: time.Duration(i+1) * 250 * time.Millisecond}
	}
	rates = partRates(parts)
	if len(rates) != 4 {
		t.Fatalf("got %d rates, want 4", len(rates))
	}
	for _, r := range rates {
		if r < 3.99 || r > 4.01 {
			t.Errorf("part rate %g, want 4", r)
		}
	}
	if got := partRates([numParts]part{}); len(got) != 0 {
		t.Errorf("rates of no completions = %v", got)
	}
}
