package engine_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// traceBytes serializes a trace as ZYT1: the IEEE-754 bits of every
// float the JSONL encoding covers, at a fraction of its cost.
func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteZYT(&buf); err != nil {
		t.Fatalf("serialize trace: %v", err)
	}
	return buf.Bytes()
}

// TestRunBatchRateSweepMatchesDirectRun: a full-level Table-1 rate
// sweep through RunBatch produces, for every point, the trace a direct
// sim.Run of the point's configuration produces — byte for byte. The
// engine's scheduling adds nothing to and loses nothing from a run.
func TestRunBatchRateSweepMatchesDirectRun(t *testing.T) {
	const seed = 3
	var jobs []engine.Job
	for _, sc := range scenario.Default().List(scenario.TagTable1) {
		for _, fpr := range metrics.DefaultFPRGrid() {
			jobs = append(jobs, engine.Job{Scenario: sc, FPR: fpr, Seed: seed})
		}
	}
	e := engine.New(engine.Options{Workers: 2, Record: trace.LevelFull})
	defer e.Close()
	br, err := e.RunBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if br.Stats.Executed != len(jobs) {
		t.Fatalf("executed %d of %d points", br.Stats.Executed, len(jobs))
	}
	for i, o := range br.Outcomes {
		j := jobs[i]
		want, err := sim.Run(j.Scenario.Build(j.FPR, j.Seed))
		if err != nil {
			t.Fatalf("%s fpr %g: direct run: %v", j.Scenario.Name, j.FPR, err)
		}
		if o.Result.Trace == nil || want.Trace == nil {
			t.Fatalf("%s fpr %g: missing full trace", j.Scenario.Name, j.FPR)
		}
		if !bytes.Equal(traceBytes(t, o.Result.Trace), traceBytes(t, want.Trace)) {
			t.Errorf("%s fpr %g: RunBatch trace differs from a direct sim.Run", j.Scenario.Name, j.FPR)
		}
		if o.Result.MinBumperGap != want.MinBumperGap || o.Result.EgoStopped != want.EgoStopped ||
			!reflect.DeepEqual(o.Result.FramesProcessed, want.FramesProcessed) {
			t.Errorf("%s fpr %g: summary %+v, direct run %+v", j.Scenario.Name, j.FPR, o.Result, want)
		}
	}
}

// TestRunBatchGoroutinesBounded: a campaign's goroutine count does not
// grow with its size. RunBatchFunc feeds the pool from a fixed set of
// submitters, so the count read inside the completion hook stays under
// a bound set by the pool size alone, for a campaign many times larger.
func TestRunBatchGoroutinesBounded(t *testing.T) {
	const workers, points = 2, 600
	runner := func(j engine.Job) (*sim.Result, error) {
		time.Sleep(50 * time.Microsecond)
		return &sim.Result{MinBumperGap: j.FPR}, nil
	}
	e := engine.New(engine.Options{Workers: workers, Runner: runner})
	defer e.Close()
	jobs := make([]engine.Job, points)
	for i := range jobs {
		jobs[i] = engine.Job{Scenario: scenario.Scenario{Name: "bounded"}, FPR: float64(i + 1), Seed: 1}
	}

	// Before the campaign: the test's own goroutines. During it: the
	// workers, the submitters, and a margin for the runtime and testing
	// package, none of which depend on len(jobs).
	bound := runtime.NumGoroutine() + workers + 2*workers + 16
	peak := 0 // the engine serializes hook calls
	_, err := e.RunBatchFunc(context.Background(), jobs, func(i int, o engine.Outcome) {
		peak = max(peak, runtime.NumGoroutine())
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > bound {
		t.Errorf("peak goroutines during a %d-job campaign = %d, want <= %d (independent of campaign size)", points, peak, bound)
	}
}
