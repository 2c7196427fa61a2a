package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// pointKey identifies a campaign point across workloads.
type pointKey struct {
	name string
	fpr  float64
	seed int64
}

func keyOf(p point) pointKey { return pointKey{p.sc.Name, p.fpr, p.seed} }

// forEach calls fn(i) for i in [0, n) on `workers` goroutines and
// returns the first error.
func forEach(n, workers int, fn func(i int) error) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := firstErr != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// directDigests runs every point straight through scenario.Build and
// sim.Run, bypassing the engine and the store, and digests the results:
// the reference every campaign workload's answers are checked against.
func directDigests(pts []point, workers int) (map[pointKey]uint64, error) {
	ds := make([]uint64, len(pts))
	err := forEach(len(pts), workers, func(i int) error {
		p := pts[i]
		cfg := p.sc.Build(p.fpr, p.seed)
		cfg.Record = trace.LevelSummary
		res, err := sim.Run(cfg)
		if err != nil {
			return fmt.Errorf("reference run %s: %w", p, err)
		}
		ds[i] = digest(p, res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[pointKey]uint64, len(pts))
	for i, p := range pts {
		out[keyOf(p)] = ds[i]
	}
	return out, nil
}

// referenceDigests returns a set-up step that computes the direct-run
// digests of the shared points and checks that every repeated set-up
// reproduces the first one's.
func (r *run) referenceDigests(shared []point) func() (map[pointKey]uint64, error) {
	var first map[pointKey]uint64
	return func() (map[pointKey]uint64, error) {
		ref, err := directDigests(shared, r.workers)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = ref
		} else if !maps.Equal(first, ref) {
			r.fail("reference digests differ between set-ups")
		}
		return ref, nil
	}
}

// rep is one timed campaign repetition.
type rep struct {
	wall  time.Duration
	stats engine.Stats
	drain time.Duration // last point answered → RunBatch returned
	bytes int64         // store directory size after the campaign
}

// repSpec describes how one workload runs a repetition.
type repSpec struct {
	pts  []point
	jobs []engine.Job
	// want holds the expected digest of every point seen so far: the
	// direct-run references, then each point's first answer.
	want map[pointKey]uint64
	// open builds the repetition's engine (and store, if any) and
	// returns a function that closes both. It runs inside the timed
	// region: a fresh engine per campaign is part of the workload.
	open func(i int) (*engine.Engine, func() error, error)
	// check validates one repetition's engine counters.
	check func(br *engine.BatchResult, st engine.Stats)
	// after runs outside the timed region (e.g. to measure and remove
	// the repetition's store directory).
	after func(i int, rp *rep) error
}

// runRep runs one repetition and checks every answer. When traced, a
// campaign span is recorded with one child span per point, ending when
// the engine answered it.
func (r *run) runRep(spec *repSpec, i int, traced bool) (rep, error) {
	runtime.GC()
	var (
		rp       rep
		lastDone time.Time
		campID   int64
		fn       func(int, engine.Outcome)
	)
	start := time.Now()
	if traced {
		campID = r.tr.id()
		fn = func(k int, o engine.Outcome) {
			lastDone = time.Now()
			r.tr.record(campID, int64(k), "engine.point", start, lastDone)
		}
	} else {
		fn = func(int, engine.Outcome) { lastDone = time.Now() }
	}
	eng, closeAll, err := spec.open(i)
	if err != nil {
		return rp, err
	}
	br, runErr := eng.RunBatchFunc(context.Background(), spec.jobs, fn)
	returned := time.Now()
	rp.stats = eng.Stats()
	closeErr := closeAll()
	rp.wall = time.Since(start)
	rp.drain = returned.Sub(lastDone)
	if traced {
		r.tr.add(campID, 0, int64(i), "engine.RunBatch", start, returned)
	}
	if closeErr != nil {
		return rp, closeErr
	}
	if runErr != nil {
		r.fail("repetition %d: %v", i, runErr)
	}
	for k, o := range br.Outcomes {
		r.attempted++
		if o.Err != nil {
			r.failed++
			continue
		}
		key := keyOf(spec.pts[k])
		got := digest(spec.pts[k], o.Result)
		if want, ok := spec.want[key]; !ok {
			spec.want[key] = got
		} else if got != want {
			r.fail("repetition %d: %s answered %016x, expected %016x", i, spec.pts[k], got, want)
		}
	}
	spec.check(br, rp.stats)
	if spec.after != nil {
		if err := spec.after(i, &rp); err != nil {
			return rp, err
		}
	}
	return rp, nil
}

// timedReps runs untraced repetitions until the run's time is up and
// reports the end-to-end metrics.
func (r *run) timedReps(spec *repSpec) error {
	var walls []float64
	var total time.Duration
	points := 0
	for i := 0; total < r.seconds; i++ {
		rp, err := r.runRep(spec, i, false)
		if err != nil {
			return err
		}
		total += rp.wall
		points += len(spec.jobs)
		walls = append(walls, us(rp.wall))
	}
	r.set("throughput_per_s", float64(points)/total.Seconds(), "1/s")
	// A batch campaign's latency is the wall of the whole campaign — what
	// its submitter waits for — never a per-point percentile.
	r.set("latency_p50_us", median(walls), "us")
	r.set("latency_p90_us", quantile(walls, 0.9), "us")
	return nil
}

// tracedReps alternates untraced and traced repetitions for the share
// of the run's time given, and returns the traced ones plus the tracing
// overhead (1 − traced ÷ untraced throughput).
func (r *run) tracedReps(spec *repSpec, budget time.Duration) ([]rep, float64, error) {
	var traced []rep
	var plain, withSpans time.Duration
	for i := 0; plain+withSpans < budget || len(traced) == 0; i += 2 {
		a, err := r.runRep(spec, i, false)
		if err != nil {
			return nil, 0, err
		}
		b, err := r.runRep(spec, i+1, true)
		if err != nil {
			return nil, 0, err
		}
		plain += a.wall
		withSpans += b.wall
		traced = append(traced, b)
	}
	return traced, 1 - plain.Seconds()/withSpans.Seconds(), nil
}

// repMeans averages the traced repetitions' figures.
type repMeans struct {
	wall                                              time.Duration
	executed, lockstep, archived, storeErrs, diskHits float64
	drain                                             time.Duration
	bytes                                             float64
}

func meansOf(reps []rep) repMeans {
	var m repMeans
	n := float64(len(reps))
	for _, rp := range reps {
		m.wall += rp.wall
		m.drain += rp.drain
		m.executed += float64(rp.stats.Executed)
		m.lockstep += float64(rp.stats.LockstepRuns)
		m.archived += float64(rp.stats.Archived)
		m.storeErrs += float64(rp.stats.StoreErrors)
		m.diskHits += float64(rp.stats.DiskHits)
		m.bytes += float64(rp.bytes)
	}
	m.wall = time.Duration(float64(m.wall) / n)
	m.drain = time.Duration(float64(m.drain) / n)
	m.executed /= n
	m.lockstep /= n
	m.archived /= n
	m.storeErrs /= n
	m.diskHits /= n
	m.bytes /= n
	return m
}

// simLayer sums a direct pass's per-point timings.
type simLayer struct {
	build, run time.Duration
	steps      int64
}

// simPass runs every point straight through scenario.Build and
// sim.New/Step, timing the two separately, on the engine's pool size of
// goroutines. keep, when set, receives each result.
func (r *run) simPass(pts []point, level trace.Level, keep func(i int, res *sim.Result, op int64) error) (simLayer, error) {
	var (
		mu sync.Mutex
		sl simLayer
	)
	passID := r.tr.id()
	passStart := time.Now()
	err := forEach(len(pts), r.workers, func(i int) error {
		p := pts[i]
		op := int64(i)
		t0 := time.Now()
		cfg := p.sc.Build(p.fpr, p.seed)
		t1 := time.Now()
		r.tr.record(passID, op, "scenario.build", t0, t1)
		cfg.Record = level
		s, err := sim.New(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		steps := int64(0)
		for s.Step() {
			steps++
		}
		res := s.Result()
		t2 := time.Now()
		r.tr.record(passID, op, "sim.run", t1, t2)
		mu.Lock()
		sl.build += t1.Sub(t0)
		sl.run += t2.Sub(t1)
		sl.steps += steps
		mu.Unlock()
		if keep != nil {
			return keep(i, res, op)
		}
		return nil
	})
	r.tr.add(passID, 0, -1, "layer.pass", passStart, time.Now())
	return sl, err
}

// setSimLayer reports the sim-stage metrics of a direct pass and the
// engine idle share of the traced campaigns.
func (r *run) setSimLayer(sl simLayer, n int, m repMeans) {
	pts := float64(n)
	r.set("scenario.build_ms", ms(sl.build)/pts, "ms")
	r.set("sim.run_ms", ms(sl.run)/pts, "ms")
	r.set("sim.steps", float64(sl.steps)/pts, "count")
	r.set("sim.us_per_step", us(sl.run)/float64(sl.steps), "us")
	busy := (sl.build + sl.run).Seconds()
	r.set("engine.idle_share", 1-busy/(float64(r.workers)*m.wall.Seconds()), "ratio")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// --- table1_summary ---------------------------------------------------

func runSummary(r *run) error {
	pts := summaryPoints(r.seed)
	ref, err := measureSetup(r, r.referenceDigests(sharedPoints(r.seed)), func(map[pointKey]uint64) {})
	if err != nil {
		return err
	}
	spec := &repSpec{
		pts: pts, jobs: jobsFor(pts), want: maps.Clone(ref),
		open: func(int) (*engine.Engine, func() error, error) {
			eng := engine.New(engine.Options{Record: trace.LevelSummary})
			return eng, func() error { eng.Close(); return nil }, nil
		},
		check: func(br *engine.BatchResult, st engine.Stats) {
			if st.Executed != int64(len(pts)) {
				r.fail("a fresh engine executed %d of %d points", st.Executed, len(pts))
			}
		},
	}
	if !r.traced {
		return r.timedReps(spec)
	}
	reps, overhead, err := r.tracedReps(spec, r.seconds*6/10)
	if err != nil {
		return err
	}
	m := meansOf(reps)
	sl, err := r.simPass(pts, trace.LevelSummary, nil)
	if err != nil {
		return err
	}
	r.setSimLayer(sl, len(pts), m)
	r.set("engine.executed", m.executed, "count")
	r.set("engine.lockstep_runs", m.lockstep, "count")
	r.set("engine.drain_ms", ms(m.drain), "ms")
	r.set("bench.trace_overhead_share", overhead, "ratio")
	poolBusy := (sl.build + sl.run).Seconds() / float64(r.workers)
	r.set("bench.unaccounted_share", 1-poolBusy/m.wall.Seconds(), "ratio")
	return nil
}

// --- table1_store_cold ------------------------------------------------

func runStoreCold(r *run) error {
	pts := sharedPoints(r.seed)
	ref, err := measureSetup(r, r.referenceDigests(pts), func(map[pointKey]uint64) {})
	if err != nil {
		return err
	}
	storeDir := func(i int) string { return filepath.Join(r.dir, fmt.Sprintf("cold-%d", i)) }
	spec := &repSpec{
		pts: pts, jobs: jobsFor(pts), want: maps.Clone(ref),
		open: func(i int) (*engine.Engine, func() error, error) {
			st, err := store.Open(storeDir(i))
			if err != nil {
				return nil, nil, err
			}
			eng := engine.New(engine.Options{Store: st})
			return eng, func() error { eng.Close(); return st.Close() }, nil
		},
		check: func(br *engine.BatchResult, st engine.Stats) {
			if st.Executed != int64(len(pts)) || st.Archived != int64(len(pts)) || st.StoreErrors != 0 {
				r.fail("cold store campaign: executed %d, archived %d, store errors %d of %d points",
					st.Executed, st.Archived, st.StoreErrors, len(pts))
			}
		},
		after: func(i int, rp *rep) error {
			n, err := dirBytes(storeDir(i))
			if err != nil {
				return err
			}
			rp.bytes = n
			return os.RemoveAll(storeDir(i))
		},
	}
	if !r.traced {
		return r.timedReps(spec)
	}
	reps, overhead, err := r.tracedReps(spec, r.seconds*6/10)
	if err != nil {
		return err
	}
	m := meansOf(reps)

	// The archive path, timed per call on the same results: the canonical
	// JSONL hash, the ZYT1 encoding, and Store.Put into a fresh store.
	layerStore, err := store.Open(filepath.Join(r.dir, "layer"))
	if err != nil {
		return err
	}
	var (
		mu                sync.Mutex
		hash, encode, put time.Duration
	)
	sl, err := r.simPass(pts, trace.LevelFull, func(i int, res *sim.Result, op int64) error {
		// One archive at a time, as the engine's single archiver writes,
		// while the other workers keep simulating.
		mu.Lock()
		defer mu.Unlock()
		p := pts[i]
		t0 := time.Now()
		h := sha256.New()
		if err := res.Trace.Write(h); err != nil {
			return err
		}
		t1 := time.Now()
		if err := res.Trace.WriteZYT(io.Discard); err != nil {
			return err
		}
		t2 := time.Now()
		ent, created, err := layerStore.Put(p.sc.Name, store.KeyForScenario(p.sc, p.fpr, p.seed), res)
		t3 := time.Now()
		if err != nil {
			return err
		}
		r.tr.record(0, op, "trace.jsonl_hash", t0, t1)
		r.tr.record(0, op, "trace.zyt_encode", t1, t2)
		r.tr.record(0, op, "store.put", t2, t3)
		if !created || ent.Artifact != hex.EncodeToString(h.Sum(nil)) {
			r.fail("%s: store put created=%v artifact %s, not the SHA-256 of its JSONL trace", p, created, ent.Artifact)
		}
		hash += t1.Sub(t0)
		encode += t2.Sub(t1)
		put += t3.Sub(t2)
		return nil
	})
	if cerr := layerStore.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	n := float64(len(pts))
	r.setSimLayer(sl, len(pts), m)
	r.set("trace.jsonl_hash_ms", ms(hash)/n, "ms")
	r.set("trace.zyt_encode_ms", ms(encode)/n, "ms")
	r.set("store.put_ms", ms(put)/n, "ms")
	r.set("store.put_io_ms", ms(put-hash-encode)/n, "ms")
	r.set("store.bytes_written_mb", m.bytes/(1<<20), "MB")
	r.set("engine.drain_ms", ms(m.drain), "ms")
	r.set("engine.executed", m.executed, "count")
	r.set("engine.lockstep_runs", m.lockstep, "count")
	r.set("engine.archived", m.archived, "count")
	r.set("engine.store_errors", m.storeErrs, "count")
	r.set("bench.trace_overhead_share", overhead, "ratio")
	// Simulations share the pool while the engine archives on one
	// goroutine, overlapping them: the blocking path is the longer one.
	layerSum := max((sl.build+sl.run).Seconds()/float64(r.workers), put.Seconds())
	r.set("bench.unaccounted_share", 1-layerSum/m.wall.Seconds(), "ratio")
	return nil
}

// --- store_warm -------------------------------------------------------

func runStoreWarm(r *run) error {
	pts := sharedPoints(r.seed)
	jobs := jobsFor(pts)
	refs := r.referenceDigests(pts)
	type warmSetup struct {
		dir string
		ref map[pointKey]uint64
	}
	setupN := 0
	// Set-up: the references, then the point set archived once into a
	// fresh store through a store-attached engine.
	ws, err := measureSetup(r, func() (warmSetup, error) {
		ref, err := refs()
		if err != nil {
			return warmSetup{}, err
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("warm-%d", setupN))
		setupN++
		st, err := store.Open(dir)
		if err != nil {
			return warmSetup{}, err
		}
		eng := engine.New(engine.Options{Store: st})
		br, err := eng.RunBatch(context.Background(), jobs)
		eng.Close()
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return warmSetup{}, fmt.Errorf("archive the warm store: %w", err)
		}
		if archived := eng.Stats().Archived; archived != int64(len(pts)) {
			r.fail("set-up archived %d of %d points", archived, len(pts))
		}
		for k, o := range br.Outcomes {
			if got := digest(pts[k], o.Result); got != ref[keyOf(pts[k])] {
				r.fail("set-up: %s answered %016x, expected %016x", pts[k], got, ref[keyOf(pts[k])])
			}
		}
		return warmSetup{dir, ref}, nil
	}, func(ws warmSetup) { os.RemoveAll(ws.dir) })
	if err != nil {
		return err
	}
	dir := ws.dir
	spec := &repSpec{
		pts: pts, jobs: jobs, want: maps.Clone(ws.ref),
		open: func(int) (*engine.Engine, func() error, error) {
			st, err := store.Open(dir)
			if err != nil {
				return nil, nil, err
			}
			eng := engine.New(engine.Options{Store: st})
			return eng, func() error { eng.Close(); return st.Close() }, nil
		},
		check: func(br *engine.BatchResult, st engine.Stats) {
			if br.Stats.Executed != 0 || br.Stats.DiskHits != len(pts) {
				r.fail("warm campaign: executed %d, disk hits %d of %d points", br.Stats.Executed, br.Stats.DiskHits, len(pts))
			}
		},
	}
	if !r.traced {
		return r.timedReps(spec)
	}
	reps, overhead, err := r.tracedReps(spec, r.seconds*6/10)
	if err != nil {
		return err
	}
	m := meansOf(reps)

	// The read path, timed per call: open the store, then per point the
	// manifest lookup and the trace decode.
	var open, lookup, decode time.Duration
	const opens = 5
	for k := 0; k < opens; k++ {
		t0 := time.Now()
		st, err := store.Open(dir)
		t1 := time.Now()
		if err != nil {
			return err
		}
		r.tr.record(0, -1, "store.Open", t0, t1)
		open += t1.Sub(t0)
		if k < opens-1 {
			if err := st.Close(); err != nil {
				return err
			}
			continue
		}
		for i, p := range pts {
			t0 := time.Now()
			ent, ok := st.Lookup(store.KeyForScenario(p.sc, p.fpr, p.seed))
			t1 := time.Now()
			if !ok {
				r.fail("%s missing from the warm store", p)
				continue
			}
			tr, err := st.Trace(ent)
			t2 := time.Now()
			if err != nil {
				r.fail("%s: %v", p, err)
				continue
			}
			if tr.Len() != ent.Rows {
				r.fail("%s: decoded %d rows, manifest says %d", p, tr.Len(), ent.Rows)
			}
			r.tr.record(0, int64(i), "store.Lookup", t0, t1)
			r.tr.record(0, int64(i), "store.Trace", t1, t2)
			lookup += t1.Sub(t0)
			decode += t2.Sub(t1)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	n := float64(len(pts))
	r.set("store.open_ms", ms(open)/opens, "ms")
	r.set("store.lookup_us", us(lookup)/n, "us")
	r.set("store.trace_decode_ms", ms(decode)/n, "ms")
	r.set("engine.disk_hits", m.diskHits, "count")
	r.set("engine.executed", m.executed, "count")
	r.set("engine.drain_ms", ms(m.drain), "ms")
	r.set("bench.trace_overhead_share", overhead, "ratio")
	// Disk loads run on up to one goroutine per worker; the open is serial.
	layerSum := (open / opens).Seconds() + (lookup+decode).Seconds()/float64(r.workers)
	r.set("bench.unaccounted_share", 1-layerSum/m.wall.Seconds(), "ratio")
	return nil
}
