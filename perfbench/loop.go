package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// outcome is one request as its client saw it.
type outcome struct {
	// lat is the time the client waited for the reply.
	lat time.Duration
	// err is a failure or refusal (an admission shed counts here).
	err error
	// wrong marks an answer that differs from the reference.
	wrong bool
}

// window is the record of one closed-loop measurement window.
type window struct {
	elapsed   time.Duration
	attempted int
	failed    int
	wrong     int
	firstErr  error
	lat       latency
	// steal is the share of the machine's CPU time the hypervisor gave
	// to other guests during the window.
	steal     float64
	qpsSlices []float64 // completion rate per tenth of the window
	res       resources
}

// latency summarizes a window's request latencies in milliseconds.
type latency struct {
	p50, p95 float64
	// samples is the number of latencies behind the percentiles, beyond
	// how many of them lie above p95, and dropped how many requests went
	// unsampled because a client outran its buffer.
	samples, beyond, dropped int
}

// numParts is how many parts a window is split into: the process moves
// to its next CPU at each part boundary, and the report prints each
// part's completion rate.
const numParts = 10

// maxRate bounds the requests per second one client can record; latency
// samples beyond it are dropped (and counted).
const maxRate = 100000

// part is one client's completions within one tenth of a window: how
// many, and when the last one arrived.
type part struct {
	n    int
	last time.Duration
}

// clientLog is one client's record of a window. Latencies go to a
// buffer mapped outside the Go heap, so that the samples a long window
// piles up do not grow the heap and thereby stretch the garbage
// collector's cycle for the system under test as the window goes on.
type clientLog struct {
	lat     []float32 // ms
	parts   [numParts]part
	n       int
	dropped int
	failed  int
	wrong   int
	err     error
}

// drive runs a closed loop: each of clients goroutines sends its next
// request only after the previous reply arrived, until d has passed.
// next holds each client's position in its request sequence and is
// advanced, so consecutive windows continue the sequences. The meter is
// read at both ends of the window.
func drive(clients int, d time.Duration, next []int, m meter, do func(c, i int) outcome) (window, error) {
	logs := make([]clientLog, clients)
	capacity := int(d.Seconds()+1) * maxRate
	for c := range logs {
		buf, err := offHeap(capacity)
		if err != nil {
			return window{}, err
		}
		defer freeOffHeap(buf)
		logs[c].lat = buf
	}
	before, err := m.read()
	if err != nil {
		return window{}, err
	}
	total0, steal0 := cpuSteal()
	start := time.Now()
	deadline := start.Add(d)
	// At every part boundary the process moves to its next CPU (rotor).
	stop, moved := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(d / numParts)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := rotor.step(); err != nil {
					moved <- err
					return
				}
			case <-stop:
				moved <- nil
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			for time.Now().Before(deadline) {
				o := do(c, next[c])
				next[c]++
				at := time.Since(start)
				switch {
				case o.err != nil:
					l.failed++
					if l.err == nil {
						l.err = o.err
					}
				case o.wrong:
					l.wrong++
				}
				if l.n < len(l.lat) {
					l.lat[l.n] = float32(float64(o.lat) / 1e6)
				} else {
					l.dropped++
				}
				l.n++
				k := int(int64(at) * numParts / int64(d))
				if k >= numParts {
					k = numParts - 1
				}
				l.parts[k].n++
				l.parts[k].last = at
			}
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	close(stop)
	if err := <-moved; err != nil {
		return window{}, fmt.Errorf("move to the next CPU: %w", err)
	}
	total1, steal1 := cpuSteal()
	w.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	after, err := m.read()
	if err != nil {
		return window{}, err
	}
	w.res = after.sub(before)

	var parts [numParts]part
	var n int
	for _, l := range logs {
		n += min(l.n, len(l.lat))
	}
	all, err := offHeap(max(n, 1))
	if err != nil {
		return window{}, err
	}
	defer freeOffHeap(all)
	all = all[:0]
	for _, l := range logs {
		w.attempted += l.n
		w.failed += l.failed + l.wrong
		w.wrong += l.wrong
		w.lat.dropped += l.dropped
		if w.firstErr == nil {
			w.firstErr = l.err
		}
		all = append(all, l.lat[:min(l.n, len(l.lat))]...)
		for k, p := range l.parts {
			parts[k].n += p.n
			parts[k].last = max(parts[k].last, p.last)
		}
	}
	w.lat.p50 = percentile(all, 50)
	w.lat.p95 = percentile(all, 95)
	w.lat.samples = len(all)
	w.lat.beyond = beyond(all, 95)
	w.qpsSlices = partRates(parts)
	return w, nil
}

// partRates returns, per part, the completions in it divided by the time
// from the previous part's last completion to this part's last.
// Measuring between completions rather than between the part's fixed
// boundaries keeps the rate free of the quantization a part with few,
// long requests would otherwise show. Parts without completions are
// skipped.
func partRates(parts [numParts]part) []float64 {
	var rates []float64
	var prevLast time.Duration
	for _, p := range parts {
		if p.n == 0 || p.last <= prevLast {
			continue
		}
		rates = append(rates, float64(p.n)/(p.last-prevLast).Seconds())
		prevLast = p.last
	}
	return rates
}

// offHeap maps an anonymous buffer of n float32s outside the Go heap.
func offHeap(n int) ([]float32, error) {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map sample buffer: %w", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n), nil
}

func freeOffHeap(f []float32) {
	syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 4*len(f)))
}
