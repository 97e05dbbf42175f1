package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestRotor checks that after start, and after each step, every thread
// of the process may run on exactly the rotor's current CPU, that steps
// visit every CPU the process may use, and that GOMAXPROCS is 1.
func TestRotor(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	if err := rotor.start(); err != nil {
		t.Skipf("cannot pin on this host: %v", err)
	}
	if runtime.GOMAXPROCS(0) != 1 {
		t.Fatalf("GOMAXPROCS %d, want 1", runtime.GOMAXPROCS(0))
	}
	visited := map[int]bool{}
	for k := 0; k <= len(rotor.cpus); k++ {
		cpu := rotor.cpus[rotor.at]
		visited[cpu] = true
		for tid, allowed := range threadCPUs(t) {
			if allowed != strconv.Itoa(cpu) {
				t.Errorf("step %d: thread %s may run on CPUs %s, want %d", k, tid, allowed, cpu)
			}
		}
		if err := rotor.step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(visited) != len(rotor.cpus) {
		t.Errorf("visited CPUs %v, want all of %v", visited, rotor.cpus)
	}
}

// threadCPUs maps each thread of the process to its allowed-CPU list.
func threadCPUs(t *testing.T) map[string]string {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, task := range tasks {
		raw, err := os.ReadFile("/proc/self/task/" + task.Name() + "/status")
		if err != nil {
			continue // the thread exited
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && k == "Cpus_allowed_list" {
				m[task.Name()] = strings.TrimSpace(v)
			}
		}
	}
	return m
}
