//go:build !race

// Allocation budget and benchmarks for the pooled /v1/rate path, gated
// only on non-race builds (race instrumentation allocates; CI runs the
// gate as a dedicated loadtest job). The budget is at most 5
// allocations per request, measured below net/http at the serveRate
// boundary.
package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// rateBenchRequest is the fixed snapshot the loadtest driver posts
// too: six actors and an operating point so the check branch runs.
func rateBenchRequest() RateRequest {
	return RateRequest{
		Time: 4.2,
		Ego:  AgentState{ID: "ego", Speed: 22},
		Actors: []AgentState{
			{ID: "lead", X: 32, Speed: 17},
			{ID: "lead2", X: 58, Speed: 19},
			{ID: "left", X: 8, Y: 3.5, Speed: 24, Lane: 1},
			{ID: "left-rear", X: -14, Y: 3.5, Speed: 26, Lane: 1},
			{ID: "right", X: 12, Y: -3.5, Speed: 15, Lane: -1},
			{ID: "merge", X: 40, Y: -3.5, Speed: 13, Heading: 0.12, LatVel: 0.8, Lane: -1},
		},
		Operating: map[string]float64{"front120": 10, "left": 5, "right": 5},
	}
}

func TestRateServeAllocBudget(t *testing.T) {
	s := New(Options{})
	sc := getRateScratch()
	defer putRateScratch(sc)

	body, err := json.Marshal(rateBenchRequest())
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	a := testing.AllocsPerRun(500, func() {
		rd.Reset(body)
		if code, msg := s.serveRate(sc, rd); code != 0 {
			t.Fatalf("serveRate failed: %d %s", code, msg)
		}
	})
	if a > 5 {
		t.Errorf("JSON rate path: %.1f allocs/request, budget is 5", a)
	}
}

func BenchmarkRateServeJSON(b *testing.B) {
	body, err := json.Marshal(rateBenchRequest())
	if err != nil {
		b.Fatal(err)
	}
	s := New(Options{})
	sc := getRateScratch()
	defer putRateScratch(sc)
	rd := bytes.NewReader(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		if code, msg := s.serveRate(sc, rd); code != 0 {
			b.Fatalf("serveRate failed: %d %s", code, msg)
		}
	}
}
