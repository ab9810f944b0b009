package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the names come from.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !equal(names, specNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, specNames)
	}
	compare := func(kind string, declared []metricDef, listed []struct{ Name, Unit, Better string }) {
		if len(declared) != len(listed) {
			t.Errorf("%s: %d metrics declared, %d in BENCHMARK.json", kind, len(declared), len(listed))
			return
		}
		for i, m := range declared {
			l := listed[i]
			if l.Name != m.name || l.Unit != m.unit || l.Better != m.better {
				t.Errorf("%s %d: declared %+v, BENCHMARK.json %+v", kind, i, m, l)
			}
		}
	}
	compare("end_to_end", endToEndMetrics, bj.EndToEnd)
	compare("per_layer", perLayer, bj.PerLayer)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCheckMetrics(t *testing.T) {
	want := []metricDef{{"a", "ms", "lower"}, {"b", "s", "lower"}}
	ok := map[string]metric{"a": {1, "ms"}, "b": {2, "s"}}
	if err := checkMetrics(ok, want); err != nil {
		t.Errorf("complete set: %v", err)
	}
	for name, bad := range map[string]map[string]metric{
		"missing":    {"a": {1, "ms"}},
		"undeclared": {"a": {1, "ms"}, "b": {2, "s"}, "c": {3, "s"}},
		"wrong unit": {"a": {1, "s"}, "b": {2, "s"}},
	} {
		if checkMetrics(bad, want) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
