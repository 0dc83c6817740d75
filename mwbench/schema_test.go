package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesSchema keeps BENCHMARK.json and the metric lists
// the benchmark prints in step.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.EndToEnd, endToEndDefs()) {
		t.Errorf("end_to_end differs from endToEndDefs()")
	}
	if !slices.Equal(b.PerLayer, perLayerDefs()) {
		want, _ := json.Marshal(perLayerDefs())
		t.Errorf("per_layer differs from perLayerDefs(); want\n%s", want)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("workloads %v, the benchmark runs %v", names, want)
	}
}
