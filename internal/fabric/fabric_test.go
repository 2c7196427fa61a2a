package fabric

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	zhuyi "repro"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/store"
)

// table1Points builds one campaign point per (table-1 scenario, seed)
// at a fixed rate — every point distinct, spanning enough scenarios
// that a 3-replica ring partitions them non-trivially.
func table1Points(seeds int64, fpr float64) []zhuyi.CampaignPoint {
	var pts []zhuyi.CampaignPoint
	for _, sc := range scenario.Default().List(scenario.TagTable1) {
		for seed := int64(1); seed <= seeds; seed++ {
			pts = append(pts, zhuyi.CampaignPoint{Scenario: sc.Name, FPR: fpr, Seed: seed})
		}
	}
	return pts
}

// replica starts one worker: its own engine over its own store handle
// on the shared directory, modeling a separate process.
func replica(t *testing.T, dir string) (*httptest.Server, *engine.Engine) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng := engine.New(engine.Options{Store: st, Workers: 2})
	ts := httptest.NewServer(server.New(server.Options{Engine: eng}).Handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

// coordinator builds a Coordinator over the replica URLs with its own
// store handle on the shared directory.
func coordinator(t *testing.T, dir string, urls []string, opt Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	if dir != "" {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		opt.Store = st
	}
	opt.Replicas = urls
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func coordStats(t *testing.T, baseURL string) server.StatsResponse {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRingStability(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1, err := NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := make(map[string]int)
	for _, sc := range scenario.Default().List(scenario.TagTable1) {
		fp := scenario.Default().Fingerprint(sc.Name)
		// Same point, same replica — across ring rebuilds (i.e. across
		// campaigns and coordinator restarts).
		if r1.Owner(fp) != r2.Owner(fp) {
			t.Errorf("%s: owner differs across identical rings", sc.Name)
		}
		seq := r1.Sequence(fp)
		if len(seq) != len(urls) {
			t.Fatalf("%s: sequence %v is not a full replica permutation", sc.Name, seq)
		}
		if seq[0] != r1.Owner(fp) {
			t.Errorf("%s: Sequence[0] %q != Owner %q", sc.Name, seq[0], r1.Owner(fp))
		}
		seen := map[string]bool{}
		for _, rep := range seq {
			if seen[rep] {
				t.Errorf("%s: replica %q repeats in sequence", sc.Name, rep)
			}
			seen[rep] = true
		}
		owners[r1.Owner(fp)]++
	}
	if len(owners) < 2 {
		t.Errorf("all table-1 scenarios landed on one replica: %v (vnode spread broken?)", owners)
	}

	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty replica set accepted")
	}
	if _, err := NewRing([]string{"http://a:1", "http://a:1"}, 0); err == nil {
		t.Error("duplicate replicas accepted")
	}
}

// TestFabricRoundTripAndWarmRerun is the 3-replica happy path: a cold
// campaign partitions across replicas and every point simulates exactly
// once; an identical rerun answers entirely from the coordinator's
// warm manifest tier without touching a replica's engine again.
func TestFabricRoundTripAndWarmRerun(t *testing.T) {
	dir := t.TempDir()
	var urls []string
	var engines []*engine.Engine
	for i := 0; i < 3; i++ {
		ts, eng := replica(t, dir)
		urls = append(urls, ts.URL)
		engines = append(engines, eng)
	}
	_, cts := coordinator(t, dir, urls, Options{})
	cl := zhuyi.NewClient(cts.URL)

	points := table1Points(2, 5)
	res, err := cl.Campaign(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.Err != nil {
			t.Fatalf("outcome %d (%s): %v", i, o.Point.Scenario, o.Err)
		}
	}
	var executed int64
	assignedReplicas := 0
	for _, eng := range engines {
		s := eng.Stats()
		executed += s.Executed
		if s.Executed > 0 {
			assignedReplicas++
		}
	}
	if executed != int64(len(points)) {
		t.Errorf("cold campaign: %d simulations across replicas for %d points (duplicates or losses)", executed, len(points))
	}
	if assignedReplicas < 2 {
		t.Errorf("cold campaign used %d replicas; partitioning broken", assignedReplicas)
	}
	if res.Stats.Executed != len(points) {
		t.Errorf("cold trailer: %d fresh, want %d", res.Stats.Executed, len(points))
	}

	// Identical rerun: the coordinator's warm tier answers every point
	// from the shared manifest — zero replica simulations, zero fresh.
	res2, err := cl.Campaign(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Executed != 0 || res2.Stats.DiskHits != len(points) {
		t.Errorf("warm rerun stats %+v, want 0 fresh / %d disk", res2.Stats, len(points))
	}
	var executedAfter int64
	for _, eng := range engines {
		executedAfter += eng.Stats().Executed
	}
	if executedAfter != executed {
		t.Errorf("warm rerun re-simulated: replica executed %d -> %d", executed, executedAfter)
	}
	stats := coordStats(t, cts.URL)
	if stats.Engine.ManifestHits < int64(len(points)) {
		t.Errorf("coordinator manifest hits %d, want >= %d", stats.Engine.ManifestHits, len(points))
	}
	if stats.Fabric == nil || len(stats.Fabric.Replicas) != 3 {
		t.Fatalf("fabric stats %+v, want 3 replicas", stats.Fabric)
	}
	var assigned int64
	for _, rs := range stats.Fabric.Replicas {
		if !rs.Healthy {
			t.Errorf("replica %s unhealthy after clean campaigns", rs.URL)
		}
		assigned += rs.Assigned
	}
	if assigned != int64(len(points)) {
		t.Errorf("assigned %d points across replicas, want %d (warm rerun must not delegate)", assigned, len(points))
	}
}

// dyingReplica simulates-and-archives the first few of its assigned
// points, streams only the first outcome, then drops the stream with
// no trailer — a deterministic stand-in for a worker killed
// mid-campaign after archiving part of its work.
func dyingReplica(t *testing.T, dir string) (*httptest.Server, *engine.Engine) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng := engine.New(engine.Options{Store: st, Workers: 1})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/campaign" {
			http.NotFound(w, r)
			return
		}
		var req server.CampaignRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := min(3, len(req.Points))
		jobs := make([]engine.Job, 0, n)
		for _, pt := range req.Points[:n] {
			sc, ok := scenario.Default().Lookup(pt.Scenario)
			if !ok {
				http.Error(w, "unknown "+pt.Scenario, http.StatusBadRequest)
				return
			}
			jobs = append(jobs, engine.Job{Scenario: sc, FPR: pt.FPR, Seed: pt.Seed})
		}
		// RunBatch archives every fresh run before returning, so the
		// "crash" below happens after the store already holds all n runs.
		batch, err := eng.RunBatch(r.Context(), jobs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		pr := server.PointResult{Index: 0, Scenario: req.Points[0].Scenario, FPR: req.Points[0].FPR, Seed: req.Points[0].Seed, Source: "fresh"}
		if res := batch.Outcomes[0].Result; res != nil {
			pr.MinBumperGap = res.MinBumperGap
			pr.EgoStopped = res.EgoStopped
		}
		json.NewEncoder(w).Encode(server.CampaignLine{Point: &pr})
		// Return with neither the remaining outcomes nor a stats trailer:
		// the coordinator's client sees the stream die mid-campaign.
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, eng
}

// owningVictim starts dying replicas until one owns at least one of the
// campaign's points on the ring over healthy plus the victim (the ring a
// coordinator with default virtual nodes builds). Ring placement depends
// only on URL strings, and a victim on an unlucky port would own
// nothing, never be contacted, and so never be seen to die.
func owningVictim(t *testing.T, dir string, healthy []string, points []zhuyi.CampaignPoint) (*httptest.Server, *engine.Engine) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		victim, eng := dyingReplica(t, dir)
		ring, err := NewRing(append(slices.Clone(healthy), victim.URL), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			if ring.Owner(scenario.Default().Fingerprint(pt.Scenario)) == victim.URL {
				return victim, eng
			}
		}
	}
	t.Fatal("no dying replica owned a campaign point in 50 attempts")
	return nil, nil
}

// TestReplicaDeathMidCampaignZeroDuplicates is the fabric's failure
// path: one replica dies mid-campaign after archiving part of its
// share. The campaign must still complete, the dead replica's
// unanswered points must be retried on the surviving replicas, and —
// because retries land in the shared store first — the total number of
// fresh simulations across all replicas must equal the number of
// distinct points: zero duplicates.
func TestReplicaDeathMidCampaignZeroDuplicates(t *testing.T) {
	dir := t.TempDir()
	points := table1Points(2, 5)

	s1, e1 := replica(t, dir)
	s2, e2 := replica(t, dir)
	victim, victimEng := owningVictim(t, dir, []string{s1.URL, s2.URL}, points)
	_, cts := coordinator(t, dir, []string{s1.URL, s2.URL, victim.URL}, Options{Backoff: 300 * time.Millisecond})

	cl := zhuyi.NewClient(cts.URL)
	res, err := cl.Campaign(context.Background(), points)
	if err != nil {
		t.Fatalf("campaign did not survive the replica death: %v", err)
	}
	for i, o := range res.Outcomes {
		if o.Err != nil {
			t.Fatalf("outcome %d (%s seed %d): %v", i, o.Point.Scenario, o.Point.Seed, o.Err)
		}
	}

	executed := e1.Stats().Executed + e2.Stats().Executed + victimEng.Stats().Executed
	if executed != int64(len(points)) {
		t.Errorf("%d fresh simulations across all replicas for %d distinct points — want exactly one each (zero duplicates)",
			executed, len(points))
	}
	// The victim archived runs it never streamed; the survivors must
	// have answered those re-landed points from the shared store.
	diskHits := e1.Stats().DiskHits + e2.Stats().DiskHits
	if victimEng.Stats().Executed > 1 && diskHits == 0 {
		t.Error("no disk hits on survivors: re-landed points re-simulated instead of deduping through the store")
	}

	stats := coordStats(t, cts.URL)
	if stats.Fabric.Retried == 0 {
		t.Error("fabric stats report zero retried points after a replica death")
	}
	var victimStats *server.ReplicaStats
	for i := range stats.Fabric.Replicas {
		if stats.Fabric.Replicas[i].URL == victim.URL {
			victimStats = &stats.Fabric.Replicas[i]
		}
	}
	if victimStats == nil {
		t.Fatal("victim missing from fabric stats")
	}
	if victimStats.Healthy {
		t.Error("victim still marked healthy after dropping its stream")
	}
	if victimStats.Failures == 0 {
		t.Error("victim shows no failures after dropping its stream")
	}
}

// TestStalledReplicaTripsWatchdog: a replica that accepts the stream
// and then never produces a point must be cancelled by the stall
// watchdog and its points answered elsewhere.
func TestStalledReplicaTripsWatchdog(t *testing.T) {
	dir := t.TempDir()
	s1, _ := replica(t, dir)

	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Stall until the watchdog-cancelled client disconnects (or the
		// test tears down) — never send a point.
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(stalled.Close)
	t.Cleanup(func() { close(release) }) // LIFO: release before Close waits on the handler

	// The stall timeout must beat the stalled replica (which never sends
	// a byte) without tripping on the healthy one, whose first point can
	// take a while under -race — so generous, not tight.
	_, cts := coordinator(t, dir, []string{s1.URL, stalled.URL}, Options{
		StallTimeout: 2 * time.Second,
		Backoff:      50 * time.Millisecond,
	})
	cl := zhuyi.NewClient(cts.URL)
	points := table1Points(1, 5)
	res, err := cl.Campaign(context.Background(), points)
	if err != nil {
		t.Fatalf("campaign did not survive the stalled replica: %v", err)
	}
	for i, o := range res.Outcomes {
		if o.Err != nil {
			t.Errorf("outcome %d: %v", i, o.Err)
		}
	}
}

// TestMRFWarmAndProxied: a cold MRF search proxies to the owning
// replica; once that replica's probes are archived in the shared
// store, the identical search answers from the coordinator's manifest
// tier — same response, no proxy.
func TestMRFWarmAndProxied(t *testing.T) {
	dir := t.TempDir()
	ts, _ := replica(t, dir)
	c, cts := coordinator(t, dir, []string{ts.URL}, Options{})

	get := func() server.MRFResponse {
		t.Helper()
		resp, err := http.Get(cts.URL + "/v1/mrf/cut-out-fast?seeds=2&fprs=2,30")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mrf status %d", resp.StatusCode)
		}
		var out server.MRFResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	cold := get()
	if got := c.proxied.Load(); got != 1 {
		t.Fatalf("cold MRF proxied %d times, want 1", got)
	}
	warm := get()
	if got := c.proxied.Load(); got != 1 {
		t.Errorf("warm MRF proxied again (%d total): manifest tier did not answer", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm MRF diverges from proxied MRF:\ncold %+v\nwarm %+v", cold, warm)
	}
	if coordStats(t, cts.URL).Engine.ManifestHits == 0 {
		t.Error("warm MRF reported no manifest hits")
	}
}

// TestCoordinatorValidation: bad campaigns fail fast with the same
// 400s a worker returns, and an all-dead replica set still yields a
// well-formed response (per-point errors + trailer), not a hang.
func TestCoordinatorValidation(t *testing.T) {
	dir := t.TempDir()
	dead := "http://127.0.0.1:1" // nothing listens there
	_, cts := coordinator(t, dir, []string{dead}, Options{Backoff: 20 * time.Millisecond, Retries: 1})

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(cts.URL+"/v1/campaign", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(`{"points":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty campaign: status %d, want 400", code)
	}
	if code := post(`{"points":[{"scenario":"bogus","fpr":5,"seed":1}]}`); code != http.StatusBadRequest {
		t.Errorf("unknown scenario: status %d, want 400", code)
	}
	if code := post(`{"points":[{"scenario":"cut-out-fast","fpr":-1,"seed":1}]}`); code != http.StatusBadRequest {
		t.Errorf("negative fpr: status %d, want 400", code)
	}

	// Every replica dead: the client must get per-point errors and the
	// trailer's replica-failure summary, not a silent hang.
	cl := zhuyi.NewClient(cts.URL)
	res, err := cl.Campaign(context.Background(), table1Points(1, 5)[:2])
	if err == nil {
		t.Fatal("campaign against a dead replica set reported success")
	}
	if !strings.Contains(err.Error(), "replica failures") {
		t.Errorf("error %q does not carry the replica failure summary", err)
	}
	for i, o := range res.Outcomes {
		if o.Err == nil {
			t.Errorf("outcome %d has no error with every replica dead", i)
		}
	}
}
