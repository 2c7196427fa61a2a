// Command loadtest is the stdlib-only load driver for the POST
// /v1/rate serving path. It sustains -concurrency closed-loop workers
// against a running `zhuyi serve` for -duration, optionally keeping a
// background campaign streaming the whole time (-campaign) so the
// measurement captures the admission-gated contention the endpoint is
// built for, and prints one JSON report with client-observed latency
// quantiles. scripts/loadtest.sh runs it and gates the p99 in CI;
// BENCH_serve.json is the committed artifact.
//
// The driver exits non-zero if any rate request fails — under the
// admission gate, campaign pressure must never cost correctness, only
// bounded latency.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	zhuyi "repro"
	"repro/internal/hist"
)

// report is the driver's stdout artifact, embedded verbatim into
// BENCH_serve.json by scripts/loadtest.sh.
type report struct {
	Concurrency    int         `json:"concurrency"`
	TargetQPS      float64     `json:"target_qps"`
	DurationS      float64     `json:"duration_s"`
	Requests       uint64      `json:"requests"`
	Errors         uint64      `json:"errors"`
	QPS            float64     `json:"qps"`
	CampaignPoints uint64      `json:"campaign_points"`
	LatencyUS      latencyRows `json:"latency_us"`
}

// latencyRows are client-observed (full HTTP round trip) quantiles in
// microseconds.
type latencyRows struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

func main() {
	addr := flag.String("addr", "", "base URL of a running zhuyi serve (e.g. http://127.0.0.1:8080); required")
	duration := flag.Duration("duration", 5*time.Second, "measured load window (after warmup)")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "unmeasured warmup window")
	concurrency := flag.Int("concurrency", 32, "rate workers")
	qps := flag.Float64("qps", 0, "target offered load in requests/s across all workers; 0 = closed loop (as fast as the workers allow, latency then includes self-queueing)")
	campaign := flag.Int("campaign", 0, "background campaign batch size, resubmitted with fresh seeds for the whole window (0 = no campaign pressure)")
	flag.Parse()
	if err := run(*addr, *duration, *warmup, *concurrency, *qps, *campaign); err != nil {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(1)
	}
}

func run(addr string, duration, warmup time.Duration, concurrency int, qps float64, campaign int) error {
	if addr == "" {
		return fmt.Errorf("-addr is required")
	}

	// One request body, built once: the wire payload is identical for
	// every request, so the drive loop allocates only what net/http
	// itself needs.
	body, err := json.Marshal(benchRateRequest())
	if err != nil {
		return err
	}
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        concurrency * 2,
		MaxIdleConnsPerHost: concurrency * 2,
	}}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Background campaign: resubmit a fresh-seeded batch in a loop so
	// the engine's workers stay saturated for the entire window. Each
	// iteration bumps the seed base, so every point is a fresh
	// simulation — cache hits would not pressure the admission gate.
	var campaignPoints atomic.Uint64
	var campaignWG sync.WaitGroup
	if campaign > 0 {
		cl := zhuyi.NewClient(addr)
		cl.HTTPClient = httpc
		campaignWG.Add(1)
		go func() {
			defer campaignWG.Done()
			// Time-based so back-to-back driver runs against one server
			// process don't replay seeds into its memory cache — the
			// campaign must stay fresh compute, not cache hits.
			seedBase := time.Now().Unix() * 10_000
			for ctx.Err() == nil {
				pts := make([]zhuyi.CampaignPoint, campaign)
				for i := range pts {
					pts[i] = zhuyi.CampaignPoint{Scenario: "cut-out", FPR: 30, Seed: seedBase + int64(i)}
				}
				seedBase += int64(campaign)
				res, err := cl.Campaign(ctx, pts)
				if err != nil {
					return // ctx cancelled at window end, or server gone
				}
				campaignPoints.Add(uint64(len(res.Outcomes)))
			}
		}()
	}

	// Open-loop pacing: a ticker drops tokens into a bounded bucket and
	// workers consume one per request. When the server can't keep up the
	// bucket overflows and ticks are discarded — the loop degrades to
	// closed at -concurrency instead of building an unbounded backlog.
	var tokens chan struct{}
	if qps > 0 {
		tokens = make(chan struct{}, max(1, int(qps)))
		go func() {
			t := time.NewTicker(time.Duration(float64(time.Second) / qps))
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					select {
					case tokens <- struct{}{}:
					default:
					}
				}
			}
		}()
	}

	var requests, errors atomic.Uint64
	var measuring atomic.Bool
	h := hist.New()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(shard uint32) {
			defer wg.Done()
			for ctx.Err() == nil {
				if tokens != nil {
					select {
					case <-tokens:
					case <-ctx.Done():
						return
					}
				}
				start := time.Now()
				ok := postOnce(ctx, httpc, addr, body)
				if !measuring.Load() {
					continue
				}
				elapsed := time.Since(start)
				requests.Add(1)
				if !ok {
					if ctx.Err() != nil {
						// A cancel mid-request is the window closing,
						// not a server failure.
						requests.Add(^uint64(0))
						return
					}
					errors.Add(1)
					continue
				}
				h.ObserveShard(elapsed, shard)
			}
		}(uint32(w))
	}

	time.Sleep(warmup)
	measuring.Store(true)
	windowStart := time.Now()
	time.Sleep(duration)
	measuring.Store(false)
	window := time.Since(windowStart)
	cancel()
	wg.Wait()
	campaignWG.Wait()

	s := h.Snapshot()
	const us = 1e3 // ns per µs
	rep := report{
		Concurrency:    concurrency,
		TargetQPS:      qps,
		DurationS:      window.Seconds(),
		Requests:       requests.Load(),
		Errors:         errors.Load(),
		QPS:            float64(s.Count) / window.Seconds(),
		CampaignPoints: campaignPoints.Load(),
		LatencyUS: latencyRows{
			Mean: s.Mean() / us,
			P50:  float64(s.Quantile(0.50)) / us,
			P90:  float64(s.Quantile(0.90)) / us,
			P99:  float64(s.Quantile(0.99)) / us,
			P999: float64(s.Quantile(0.999)) / us,
			Max:  float64(s.Max) / us,
		},
	}
	out, err := json.MarshalIndent(rep, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d rate requests failed — campaign pressure must never drop rate traffic", rep.Errors, rep.Requests)
	}
	if rep.Requests == 0 {
		return fmt.Errorf("no rate requests completed in the measurement window")
	}
	return nil
}

// postOnce fires one rate request and fully drains the response so the
// connection is reused. Any transport error or non-200 is a failure.
func postOnce(ctx context.Context, httpc *http.Client, addr string, body []byte) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/rate", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := httpc.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// benchRateRequest is the fixed snapshot every worker posts: an ego at
// speed with six surrounding actors and an operating point for the
// three analyzed cameras, so the response includes the safety check.
func benchRateRequest() zhuyi.RateRequest {
	return zhuyi.RateRequest{
		Time: 4.2,
		Ego:  zhuyi.AgentState{ID: "ego", X: 0, Y: 0, Speed: 22},
		Actors: []zhuyi.AgentState{
			{ID: "lead", X: 32, Y: 0, Speed: 17},
			{ID: "lead2", X: 58, Y: 0, Speed: 19},
			{ID: "left", X: 8, Y: 3.5, Speed: 24, Lane: 1},
			{ID: "left-rear", X: -14, Y: 3.5, Speed: 26, Lane: 1},
			{ID: "right", X: 12, Y: -3.5, Speed: 15, Lane: -1},
			{ID: "merge", X: 40, Y: -3.5, Speed: 13, Heading: 0.12, LatVel: 0.8, Lane: -1},
		},
		Operating: map[string]float64{"front120": 10, "left": 5, "right": 5},
	}
}
