package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"dynplan"
)

// The metrics the program prints are exactly the ones BENCHMARK.json at
// the repository root declares, with the same units: end-to-end metrics
// from an untraced run, per-layer metrics from a traced one.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	units := func(m map[string]metric) map[string]string {
		u := map[string]string{}
		for k, v := range m {
			u[k] = v.Unit
		}
		return u
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		u := map[string]string{}
		for _, m := range list {
			u[m.Name] = m.Unit
		}
		return u
	}

	e2e := units(endToEnd(window{}, 1, 1))
	if want := declared(spec.EndToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", e2e, want)
	}
	var zero dynplan.PlanCacheStats
	layers := perLayer(window{}, &layerAcc{}, collectSpans(nil), &probeAcc{}, zero, zero)
	addOverhead(layers, window{}, window{})
	addBooks(layers, 0, 0)
	if got, want := units(layers), declared(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
	}

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var registered []string
	for name := range workloads {
		registered = append(registered, name)
	}
	sort.Strings(names)
	sort.Strings(registered)
	if !reflect.DeepEqual(names, registered) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, registered)
	}
}
