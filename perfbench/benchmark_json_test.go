package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json names the metrics and units a run must print; the
// metric lists in main.go must match it.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, main.go %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), main.go %s (%s)", kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, main.go %d", len(b.Workloads), len(workloads))
	}
}
