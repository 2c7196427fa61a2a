package server

// Serving-tier behavior of the pooled /v1/rate path under load: the
// admission gate must keep campaign traffic from starving rate
// requests, and /v1/stats must account every request in the latency
// histograms. Race-safe (no allocation assertions here — those live in
// ratealloc_test.go behind //go:build !race).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestRateNotStarvedByCampaign hammers POST /v1/rate from 8 workers
// while a 40-point campaign streams on the same server. Every rate
// request must complete with 200 (zero dropped or starved), the
// client-observed p99 must stay bounded, and the stats endpoint must
// have histogram-accounted every one of them.
func TestRateNotStarvedByCampaign(t *testing.T) {
	ts := newTestServer(t, Options{})

	campErr := make(chan error, 1)
	go func() {
		pts := make([]Point, 40)
		for i := range pts {
			pts[i] = Point{Scenario: scenario.CutOut, FPR: 30, Seed: int64(1000 + i)}
		}
		body, _ := json.Marshal(CampaignRequest{Points: pts})
		resp, err := http.Post(ts.URL+"/v1/campaign", "application/json", bytes.NewReader(body))
		if err != nil {
			campErr <- err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			campErr <- fmt.Errorf("campaign status %d", resp.StatusCode)
			return
		}
		campErr <- nil
	}()

	const workers, perWorker = 8, 30
	reqBody, _ := json.Marshal(rateHammerRequest())
	var mu sync.Mutex
	var durations []time.Duration
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				start := time.Now()
				resp, err := http.Post(ts.URL+"/v1/rate", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("rate status %d", resp.StatusCode)
					return
				}
				mu.Lock()
				durations = append(durations, time.Since(start))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("rate request dropped under campaign load: %v", err)
	}
	if err := <-campErr; err != nil {
		t.Fatalf("background campaign: %v", err)
	}

	if len(durations) != workers*perWorker {
		t.Fatalf("completed %d rate requests, want %d", len(durations), workers*perWorker)
	}
	slices.Sort(durations)
	p99 := durations[len(durations)-1-len(durations)/100]
	// Generous for race-mode shared CI runners; without the admission
	// gate a rate request can sit behind a full campaign's compute.
	if limit := 2 * time.Second; p99 > limit {
		t.Errorf("rate p99 under campaign load = %v, bound %v", p99, limit)
	}
	t.Logf("rate p99 under campaign load: %v (max %v)", p99, durations[len(durations)-1])

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Admission == nil {
		t.Fatal("stats response has no admission block")
	}
	if st.Admission.RateInFlight != 0 {
		t.Errorf("rate_in_flight %d after load, want 0", st.Admission.RateInFlight)
	}
	t.Logf("admission: %d worker yields, %.1f ms waited", st.Admission.Yields, st.Admission.WaitedMS)
	rateRow := findLatency(st.Latency, "POST /v1/rate")
	if rateRow == nil {
		t.Fatal("no POST /v1/rate latency row in /v1/stats")
	}
	if rateRow.Count != workers*perWorker {
		t.Errorf("rate histogram count %d, want %d", rateRow.Count, workers*perWorker)
	}
	if rateRow.P99US <= 0 || rateRow.MaxUS < rateRow.P50US {
		t.Errorf("rate latency row looks broken: %+v", rateRow)
	}
	if campRow := findLatency(st.Latency, "POST /v1/campaign"); campRow == nil || campRow.Count != 1 {
		t.Errorf("campaign latency row %+v, want count 1", campRow)
	}
}

func findLatency(rows []EndpointLatency, route string) *EndpointLatency {
	for i := range rows {
		if rows[i].Route == route {
			return &rows[i]
		}
	}
	return nil
}

// rateHammerRequest mirrors the loadtest driver's snapshot: a braking
// lead plus flanking traffic, with an operating point so the safety
// check runs on every request.
func rateHammerRequest() RateRequest {
	return RateRequest{
		Time: 4.2,
		Ego:  AgentState{ID: "ego", Speed: 22},
		Actors: []AgentState{
			{ID: "lead", X: 32, Speed: 17, Accel: -3},
			{ID: "left", X: 8, Y: 3.5, Speed: 24, Lane: 1},
			{ID: "right", X: 12, Y: -3.5, Speed: 15, Lane: -1},
		},
		Operating: map[string]float64{"front120": 10, "left": 5, "right": 5},
	}
}

// TestRateDecodesJSONWhateverContentType: the rate endpoint has one
// wire format. A request is decoded as JSON whatever Content-Type it
// declares (including the retired binary type), answers in JSON, and a
// malformed body is a JSON 400, never a panic.
func TestRateDecodesJSONWhateverContentType(t *testing.T) {
	ts := newTestServer(t, Options{})
	body, _ := json.Marshal(rateHammerRequest())
	post := func(ct string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/rate", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	read := func(resp *http.Response) []byte {
		t.Helper()
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := read(post("application/json", body))

	for _, ct := range []string{"application/x-zhuyi-rate", "text/plain", ""} {
		resp := post(ct, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("Content-Type %q: status %d", ct, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); got != "application/json" {
			t.Errorf("Content-Type %q: answered %q", ct, got)
		}
		if got := read(resp); !bytes.Equal(got, want) {
			t.Errorf("Content-Type %q: answer diverges from the JSON answer:\n%s\nwant:\n%s", ct, got, want)
		}
	}

	for name, bad := range map[string][]byte{
		"binary frame": append([]byte{4, 0, 0, 0}, "ZYR1"...),
		"truncated":    body[:len(body)-3],
		"empty":        nil,
	} {
		resp := post("application/x-zhuyi-rate", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		var e ErrorResponse
		if err := json.Unmarshal(read(resp), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %v", name, err)
		}
	}
}
