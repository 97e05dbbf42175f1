package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// heldOutSeed is the seed reserved for confirming a performance claim
// after the change was written: tune and iterate on other seeds, then
// report the claim on this one too (the choosing-metrics rule that a
// claim must hold on a seed not used while writing the change).
const heldOutSeed = 20260417

// fingerprint describes the host a report was measured on.
func fingerprint() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	rotor.mu.Lock()
	cpus := fmt.Sprint(rotor.cpus)
	rotor.mu.Unlock()
	return fmt.Sprintf("cpu=%q nproc=%d rotated-cpus=%s gomaxprocs=%d go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), cpus, runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// rotor confines the benchmark's process, and the obsd daemon it
// starts, to one CPU at a time, and moves them together to the next CPU
// the process may use at every part of a measurement window.
//
// One CPU at a time: each workload is one closed-loop client, so a
// request can use only one CPU anyway. Spread over two vCPUs of a shared
// host, the same run read up to a third of the machine's CPU time as
// stolen by other guests and its throughput swung by a third from run to
// run; on one vCPU steal stayed near 2%, because the process no longer waits for
// the hypervisor to schedule a second vCPU at every cross-thread wake-up
// (garbage collector workers, exchange workers, the daemon's reply).
//
// Moving every part: how fast a vCPU runs memory-bound code drifts by
// tens of percent over minutes, and the two vCPUs drift largely
// independently, so a window that spends half its parts on each is
// slowed by one slow vCPU for half its length, not all of it.
var rotor cpuRotor

type cpuRotor struct {
	mu   sync.Mutex
	cpus []int // the CPUs the process may use; nil when not pinned
	at   int   // index in cpus of the current CPU
	pids []int // other processes that move with this one
}

// start pins the process to the first CPU it may use and sets GOMAXPROCS
// to 1. Processes started afterwards inherit the pin.
func (r *cpuRotor) start() error {
	var allowed cpuMask
	if err := affinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return fmt.Errorf("read CPU affinity: %w", err)
	}
	var cpus []int
	for i := 0; i < len(allowed)*64; i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) == 0 {
		return fmt.Errorf("empty CPU affinity mask")
	}
	if err := pinProcess(0, cpus[0]); err != nil {
		return err
	}
	runtime.GOMAXPROCS(1)
	r.mu.Lock()
	r.cpus, r.at = cpus, 0
	r.mu.Unlock()
	return nil
}

// attach makes process pid move with this one from now on.
func (r *cpuRotor) attach(pid int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cpus == nil {
		return nil
	}
	r.pids = append(r.pids, pid)
	return pinProcess(pid, r.cpus[r.at])
}

// detach stops moving process pid.
func (r *cpuRotor) detach(pid int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range r.pids {
		if p == pid {
			r.pids = append(r.pids[:i], r.pids[i+1:]...)
			return
		}
	}
}

// step moves this process and the attached ones to the next CPU.
func (r *cpuRotor) step() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.cpus) < 2 {
		return nil
	}
	r.at = (r.at + 1) % len(r.cpus)
	for _, pid := range append([]int{0}, r.pids...) {
		if err := pinProcess(pid, r.cpus[r.at]); err != nil {
			return err
		}
	}
	return nil
}

// pinProcess confines every thread of process pid (0 is this process)
// to cpu. A new thread inherits the mask of the thread that starts it,
// so a second pass catches any thread an unpinned one started meanwhile.
func pinProcess(pid, cpu int) error {
	dir := "/proc/self/task"
	if pid != 0 {
		dir = fmt.Sprintf("/proc/%d/task", pid)
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := affinity(syscall.SYS_SCHED_SETAFFINITY, tid, &one); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("pin thread %d to CPU %d: %w", tid, cpu, err)
			}
		}
	}
	return nil
}

// affinity calls sched_getaffinity or sched_setaffinity on thread tid
// (0 is the calling thread).
func affinity(trap uintptr, tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// cpuModel reads the processor model from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// meter reads the resource counters of the process under test.
type meter interface {
	// read returns cumulative CPU time (user+sys), cumulative bytes
	// allocated, and completed GC cycles with their cumulative pause.
	read() (resources, error)
}

type resources struct {
	cpu      time.Duration
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
}

func (r resources) sub(o resources) resources {
	return resources{cpu: r.cpu - o.cpu, alloc: r.alloc - o.alloc, gcCycles: r.gcCycles - o.gcCycles, gcPause: r.gcPause - o.gcPause}
}

// selfMeter meters this process: the in-process workloads run the
// system under test on the benchmark's own goroutines.
type selfMeter struct{}

func (selfMeter) read() (resources, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return resources{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
	}, nil
}

// heapReadings is how many forced collections a retained-heap reading
// takes the smallest live heap of.
const heapReadings = 3

// liveHeap forces garbage collections and returns the smallest live heap
// in bytes that follows one.
func liveHeap() (uint64, error) {
	var least uint64
	for k := 0; k < heapReadings; k++ {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if k == 0 || ms.HeapAlloc < least {
			least = ms.HeapAlloc
		}
	}
	return least, nil
}

// cpuSteal reads the machine-wide CPU time from /proc/stat: the total
// and the part the hypervisor gave to other guests (steal), in clock
// ticks. The report prints the steal share of a window, so a reader can
// tell a slow run on a busy host from a slow program.
func cpuSteal() (total, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
