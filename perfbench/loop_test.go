package main

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeMeter counts nothing; drive only needs its two readings.
type fakeMeter struct{}

func (fakeMeter) read() (resources, error) { return resources{}, nil }

// drive keeps every client's books: each request is counted once, as a
// success, a failure or a wrong answer, and sampled once; and the
// clients' sequence positions advance by the requests they made.
func TestDriveBooks(t *testing.T) {
	var calls atomic.Int64
	next := []int{0, 100}
	w, err := drive(2, 200*time.Millisecond, next, fakeMeter{}, func(c, i int) outcome {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		switch {
		case i%7 == 3:
			return outcome{lat: time.Millisecond, err: errors.New("refused")}
		case i%5 == 1:
			return outcome{lat: time.Millisecond, wrong: true}
		}
		return outcome{lat: time.Millisecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(w.attempted) != calls.Load() || w.lat.samples != w.attempted {
		t.Fatalf("attempted %d, samples %d, calls %d", w.attempted, w.lat.samples, calls.Load())
	}
	if got := next[0] + next[1] - 100; got != w.attempted {
		t.Fatalf("sequences advanced by %d, attempted %d", got, w.attempted)
	}
	if w.wrong == 0 || w.failed <= w.wrong || w.firstErr == nil {
		t.Fatalf("failed %d, wrong %d, first error %v", w.failed, w.wrong, w.firstErr)
	}
	if w.lat.p50 < 0.999 || w.lat.p50 > 1.001 {
		t.Fatalf("p50 %gms, want 1ms", w.lat.p50)
	}
	if len(w.qpsSlices) == 0 {
		t.Fatal("no throughput parts")
	}
}
