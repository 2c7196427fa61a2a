package zhuyi

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// startService runs a campaign service over an optional store dir and
// returns a client for it.
func startService(t *testing.T, storeDir string) *Client {
	t.Helper()
	var st *store.Store
	if storeDir != "" {
		var err error
		st, err = store.Open(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
	}
	ts := httptest.NewServer(server.New(server.Options{Store: st}).Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// TestClientCampaignRoundTrip is the acceptance round-trip at the
// facade level: `serve` + Client run a campaign end to end; the second
// identical request answers from the memory tier, and a fresh service
// over the same store answers from the disk tier — both asserted via
// /v1/stats.
func TestClientCampaignRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cl := startService(t, dir)
	ctx := context.Background()
	points := []CampaignPoint{
		{Scenario: ScenarioCutOut, FPR: 30, Seed: 1},
		{Scenario: ScenarioCutOut, FPR: 30, Seed: 2},
	}

	var streamed []PointResult
	res, err := cl.CampaignStream(ctx, points, func(p PointResult) { streamed = append(streamed, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 || len(streamed) != 2 {
		t.Fatalf("outcomes %d, streamed %d", len(res.Outcomes), len(streamed))
	}
	if res.Stats.Executed != 2 {
		t.Errorf("cold stats %+v, want 2 fresh", res.Stats)
	}
	for i, o := range res.Outcomes {
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
		if o.Point != points[i] {
			t.Errorf("outcome %d misaligned: %+v", i, o.Point)
		}
		if o.Result == nil || o.Result.Trace != nil {
			t.Errorf("outcome %d: want summary-only result (nil trace), got %+v", i, o.Result)
		}
		if o.Result.MinBumperGap <= 0 && !math.IsInf(o.Result.MinBumperGap, 1) {
			t.Errorf("outcome %d: min gap %g", i, o.Result.MinBumperGap)
		}
	}

	// Identical campaign: memory tier.
	res2, err := cl.Campaign(ctx, points)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CacheHits != 2 || res2.Stats.Executed != 0 {
		t.Errorf("warm stats %+v, want 2 memory hits", res2.Stats)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Engine.Executed != 2 || stats.Engine.CacheHits < 2 || stats.Engine.Archived != 2 {
		t.Errorf("service stats %+v", stats.Engine)
	}

	// Fresh service over the same store: disk tier.
	cl2 := startService(t, dir)
	res3, err := cl2.Campaign(ctx, points)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.DiskHits != 2 || res3.Stats.Executed != 0 {
		t.Errorf("disk stats %+v, want 2 disk hits", res3.Stats)
	}
	stats2, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Engine.DiskHits != 2 || stats2.Engine.Executed != 0 {
		t.Errorf("disk-tier service stats %+v", stats2.Engine)
	}
}

func TestClientQueryEndpoints(t *testing.T) {
	cl := startService(t, "")
	ctx := context.Background()

	infos, err := cl.Scenarios(ctx, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 9 {
		t.Errorf("table1 catalog size %d", len(infos))
	}

	m, err := cl.MRF(ctx, ScenarioCutOut, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scenario != ScenarioCutOut || m.Seeds != 1 {
		t.Errorf("mrf %+v", m)
	}

	rr, err := cl.Rate(ctx, RateRequest{
		Ego:    AgentState{Speed: 20},
		Actors: []AgentState{{ID: "lead", X: 25, Speed: 12, Accel: -4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Rates) == 0 {
		t.Errorf("rate response %+v", rr)
	}

	// Server-side errors surface as typed client errors.
	if _, err := cl.MRF(ctx, "no-such-scenario", 1); err == nil {
		t.Error("MRF of unknown scenario did not error")
	}
	if _, err := cl.Campaign(ctx, []CampaignPoint{{Scenario: "no-such", FPR: 30, Seed: 1}}); err == nil {
		t.Error("campaign with unknown scenario did not error")
	}
}

// hangingServer accepts connections and never responds, for timeout
// and cancellation tests.
func hangingServer(t *testing.T) (baseURL string, release func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				<-done
				conn.Close()
			}()
		}
	}()
	return "http://" + ln.Addr().String(), func() { close(done); ln.Close() }
}

// TestClientTimeoutAndCancellation: the failure contract against a
// hung server — a context deadline, an explicit cancel mid-request,
// and an http.Client timeout must all return promptly with the right
// error, never hang.
func TestClientTimeoutAndCancellation(t *testing.T) {
	base, release := hangingServer(t)
	defer release()

	cl := NewClient(base)
	points := []CampaignPoint{{Scenario: ScenarioCutOut, FPR: 30, Seed: 1}}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Campaign(ctx, points)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline: err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("deadline did not cut the request promptly")
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel2() }()
	if _, err := cl.Stats(ctx2); !errors.Is(err, context.Canceled) {
		t.Errorf("cancel: err = %v", err)
	}

	clTimeout := NewClient(base)
	clTimeout.HTTPClient = &http.Client{Timeout: 50 * time.Millisecond}
	if _, err := clTimeout.MRF(context.Background(), ScenarioCutOut, 1); err == nil {
		t.Error("http.Client timeout did not error")
	}
}

// TestCampaignUnknownScenarioLocal: the local facade's error contract.
func TestCampaignUnknownScenarioLocal(t *testing.T) {
	_, err := Campaign(context.Background(), nil, []CampaignPoint{{Scenario: "definitely-not-registered", FPR: 30, Seed: 1}})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("err = %v, want unknown-scenario error", err)
	}
}

// TestOpenStoreUnwritable: OpenStore must fail loudly on an unwritable
// directory, not defer the failure to the first archive.
func TestOpenStoreUnwritable(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	parent := t.TempDir()
	if err := os.Chmod(parent, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(parent, 0o755)
	if _, err := OpenStore(filepath.Join(parent, "sub")); err == nil {
		t.Error("OpenStore on unwritable parent did not error")
	}
}

// TestOpenStoreOnFile: a path that exists but is not a directory.
func TestOpenStoreOnFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(path); err == nil {
		t.Error("OpenStore on a regular file did not error")
	}
}

// Regression: a stream line carrying only Error (no point, no stats) —
// the server aborting mid-stream — used to be silently dropped, so the
// caller saw a misleading "ended without a stats trailer". The real
// server error must surface.
func TestClientErrorOnlyStreamLine(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/campaign" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		// One real point outcome, then an abort line.
		io.WriteString(w, `{"point":{"index":0,"scenario":"cut-out-fast","fpr":30,"seed":1,"source":"fresh","min_gap_infinite":true}}`+"\n")
		io.WriteString(w, `{"error":"all replicas unreachable"}`+"\n")
	}))
	defer ts.Close()

	cl := NewClient(ts.URL)
	points := []CampaignPoint{
		{Scenario: ScenarioCutOut, FPR: 30, Seed: 1},
		{Scenario: ScenarioCutOut, FPR: 30, Seed: 2},
	}
	res, err := cl.CampaignStream(context.Background(), points, nil)
	if err == nil {
		t.Fatal("error-only stream line was dropped; want the server's abort error")
	}
	if !strings.Contains(err.Error(), "all replicas unreachable") {
		t.Errorf("error %q does not carry the server's message", err)
	}
	if res == nil || res.Outcomes[0].Err != nil {
		t.Errorf("outcome delivered before the abort must survive: %+v", res)
	}
}

// TestClientRateTimeoutAndCancel covers the rate path's client
// contract: deadlines and cancellation cut a request promptly, and
// server-side 400s carry the server's message.
func TestClientRateTimeoutAndCancel(t *testing.T) {
	base, release := hangingServer(t)
	defer release()
	cl := NewClient(base)
	req := RateRequest{Ego: AgentState{ID: "ego", Speed: 10}}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cl.Rate(ctx, req); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Rate deadline: err = %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel2() }()
	if _, err := cl.Rate(ctx2, req); !errors.Is(err, context.Canceled) {
		t.Errorf("Rate cancel: err = %v", err)
	}

	svc := startService(t, "")
	if _, err := svc.Rate(context.Background(), RateRequest{Ego: AgentState{Speed: -5}}); err == nil ||
		!strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("invalid kinematics: err = %v", err)
	}
}

// TestClientSearchRoundTrip is the acceptance round-trip for the
// search endpoint at the facade level: the client streams generation
// summaries and the final corpus matches what the library produces
// for the same budget on a private engine — the HTTP hop adds and
// loses nothing.
func TestClientSearchRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("real closed-loop simulations")
	}
	cl := startService(t, "")
	ctx := context.Background()
	req := SearchRequest{
		Families:    []string{"following"},
		Seed:        9,
		Generations: 2,
		Population:  3,
		Seeds:       1,
		TopN:        4,
		FPRGrid:     []float64{5, 30},
	}

	var gens []SearchGeneration
	res, err := cl.Search(ctx, req, func(g SearchGeneration) { gens = append(gens, g) })
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Fatalf("got %d generation summaries, want 2", len(gens))
	}
	for i, g := range gens {
		if g.Family != "following" || g.Generation != i+1 || g.BestName == "" {
			t.Errorf("generation %d: %+v", i, g)
		}
	}
	if len(res.Corpus) == 0 || len(res.Corpus) > 4 {
		t.Fatalf("corpus size %d, want 1..4", len(res.Corpus))
	}

	eng := NewEngine(EngineOptions{Workers: 2})
	defer eng.Close()
	direct, err := SearchScenarios(ctx, SearchOptions{
		Families:    []ScenarioFamily{"following"},
		Seed:        9,
		Generations: 2,
		Population:  3,
		Seeds:       1,
		TopN:        4,
		FPRGrid:     []float64{5, 30},
		Engine:      eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, direct) {
		t.Fatal("remote search corpus differs from the library's for the same budget")
	}

	// Bad budgets fail before the stream starts, with the server's
	// message intact.
	if _, err := cl.Search(ctx, SearchRequest{Generations: -1}, nil); err == nil ||
		!strings.Contains(err.Error(), "generations") {
		t.Fatalf("negative generations: err %v", err)
	}
}
