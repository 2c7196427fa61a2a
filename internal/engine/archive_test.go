package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

// TestRunArchivesBeforeReturning: the worker that ran a job archives
// it before the job's waiters unblock, so each sequential Run finds its
// entry in the store the moment it returns, with no flush step, and
// the store lists the entries in submission order.
func TestRunArchivesBeforeReturning(t *testing.T) {
	st := openStore(t)
	fr := &tracedRunner{}
	e := New(Options{Workers: 1, Runner: fr.run, Store: st})
	const n = 32
	for i := int64(0); i < n; i++ {
		j := Job{Scenario: fakeScenario("inline"), FPR: 5, Seed: i + 1}
		if _, err := e.Run(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		entries := st.Entries()
		if len(entries) != int(i+1) {
			t.Fatalf("after run %d the store holds %d entries, want %d", i+1, len(entries), i+1)
		}
		for k, en := range entries {
			if en.Key.Seed != int64(k+1) {
				t.Fatalf("after run %d: entry %d has seed %d", i+1, k, en.Key.Seed)
			}
		}
	}
	if s := e.Stats(); s.Archived != n || s.StoreErrors != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestConcurrentRunsArchiveBeforeReturning runs every point from its
// own goroutine on a multi-worker engine: whichever worker simulated a
// point has archived it by the time its Run returns.
func TestConcurrentRunsArchiveBeforeReturning(t *testing.T) {
	st := openStore(t)
	fr := &tracedRunner{}
	e := New(Options{Workers: 4, Runner: fr.run, Store: st})
	jobs := gridJobs(fakeScenario("parallel"), []float64{1, 5, 30}, 4)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j Job) {
			defer wg.Done()
			if _, err := e.Run(context.Background(), j); err != nil {
				t.Error(err)
				return
			}
			if _, ok := st.Lookup(store.KeyForScenario(j.Scenario, j.FPR, j.Seed)); !ok {
				t.Errorf("fpr %g seed %d: not archived when Run returned", j.FPR, j.Seed)
			}
		}(j)
	}
	wg.Wait()
	if s := e.Stats(); s.Archived != int64(len(jobs)) || s.StoreErrors != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestArchiveSkipsNonResults: a store-less engine and a nil result
// archive nothing and count nothing.
func TestArchiveSkipsNonResults(t *testing.T) {
	e := New(Options{Workers: 1})
	e.archive(Job{Scenario: fakeScenario("x"), FPR: 1, Seed: 1}, &sim.Result{})
	if s := e.Stats(); s.Archived != 0 || s.StoreErrors != 0 {
		t.Fatalf("store-less engine stats = %+v", s)
	}

	st := openStore(t)
	e2 := New(Options{Workers: 1, Store: st})
	e2.archive(Job{Scenario: fakeScenario("x"), FPR: 1, Seed: 1}, nil)
	if st.Len() != 0 {
		t.Fatal("nil result was archived")
	}
	if s := e2.Stats(); s.Archived != 0 || s.StoreErrors != 0 {
		t.Fatalf("nil-result stats = %+v", s)
	}
}
