package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestInputsFollowTheSeed pins that a workload's inputs are a function
// of the workload seed alone: the same seed gives byte-identical
// inputs, another seed gives different ones.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloadNames() {
		a, err := inputBytes(w, 42)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := inputBytes(w, 42)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		c, err := inputBytes(w, 43)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 gave different inputs on two derivations", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 42 and 43 gave the same inputs", w)
		}
	}
}

// TestSharedPointsAreInSummary pins the premise of the cross-workload
// digest check: table1_summary runs every point the store workloads
// run.
func TestSharedPointsAreInSummary(t *testing.T) {
	all := map[pointKey]bool{}
	sum := summaryPoints(7)
	for _, p := range sum {
		all[keyOf(p)] = true
	}
	shared := sharedPoints(7)
	if len(sum) != 1080 || len(shared) != 108 || len(all) != len(sum) {
		t.Fatalf("got %d summary points (%d distinct) and %d shared, want 1080 and 108", len(sum), len(all), len(shared))
	}
	for _, p := range shared {
		if !all[keyOf(p)] {
			t.Errorf("shared point %s is not in table1_summary", p)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the per-layer table in step with
// the benchmark's declaration at the checkout root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark reports %d", len(decl.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if d := decl.PerLayer[i]; d.Name != m.name || d.Unit != m.unit {
			t.Errorf("per-layer metric %d: declared %s [%s], reported %s [%s]", i, d.Name, d.Unit, m.name, m.unit)
		}
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-9 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
