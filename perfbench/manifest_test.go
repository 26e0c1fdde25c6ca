package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric tables in main.go and BENCHMARK.json at the repository
// root must name the same metrics with the same units.
func TestManifestMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
