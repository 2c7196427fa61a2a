package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/safety"
	"repro/internal/server"
	"repro/internal/world"
)

// rateTimeout bounds one request. A failed or refused request enters
// the latency sample at this value, beyond any latency limit, so it is
// counted as a miss and never dropped.
const rateTimeout = 5 * time.Second

// rateBlock is how many requests run back to back before a traced run
// switches between untraced and traced requests.
const rateBlock = 256

// rateState is a running rate_loopback set-up: the request mix, the
// in-process handler's answer to each body, and one HTTP server on
// loopback with one keep-alive client connection.
type rateState struct {
	mix       []snapshot
	expected  [][]byte
	handler   http.Handler
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *http.Client
	url       string
	buf       bytes.Buffer
}

// memWriter is a reusable in-process http.ResponseWriter.
type memWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *memWriter) reset() {
	clear(w.header)
	w.code = http.StatusOK
	w.body.Reset()
}

func newRateRequest(url string, body []byte) *http.Request {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is built here and always valid
	}
	req.Header.Set("Content-Type", "application/json")
	return req
}

// serveInProcess runs the handler on one body without a network and
// returns when the call started and ended.
func (st *rateState) serveInProcess(w *memWriter, body []byte) (time.Time, time.Time) {
	w.reset()
	req := newRateRequest("http://in-process/v1/rate", body)
	t0 := time.Now()
	st.handler.ServeHTTP(w, req)
	return t0, time.Now()
}

func startRate(r *run) (*rateState, error) {
	mix, err := rateMix(r.seed)
	if err != nil {
		return nil, err
	}
	st := &rateState{mix: mix, handler: server.New(server.Options{}).Handler()}
	w := &memWriter{header: http.Header{}}
	for _, s := range mix {
		st.serveInProcess(w, s.body)
		if w.code != http.StatusOK {
			return nil, fmt.Errorf("in-process handler answered %d: %s", w.code, w.body.String())
		}
		st.expected = append(st.expected, bytes.Clone(w.body.Bytes()))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String() + "/v1/rate"
	st.hs = &http.Server{Handler: st.handler}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.transport = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	st.client = &http.Client{Transport: st.transport, Timeout: rateTimeout}
	// Warm the connection and the server's pools; every answer is checked.
	for i := 0; i < len(mix); i++ {
		if _, err := st.do(i % len(mix)); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// close stops the server and waits until it has.
func (st *rateState) close() {
	st.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st.hs.Shutdown(ctx)
	<-st.served
}

// do sends body k over loopback, checks the answer against the
// in-process one and returns the client-side round trip.
func (st *rateState) do(k int) (time.Duration, error) {
	req := newRateRequest(st.url, st.mix[k].body)
	t0 := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, err
	}
	st.buf.Reset()
	_, err = st.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("snapshot %d: status %d: %s", k, resp.StatusCode, st.buf.String())
	}
	if !bytes.Equal(st.buf.Bytes(), st.expected[k]) {
		return 0, fmt.Errorf("snapshot %d: loopback answer differs from the in-process handler's", k)
	}
	return d, nil
}

// request sends request i of the cycle and accounts for it. A failure
// enters the sample at rateTimeout.
func (r *run) request(st *rateState, i int) time.Duration {
	r.attempted++
	d, err := st.do(i % len(st.mix))
	if err != nil {
		r.failed++
		r.fail("request %d: %v", i, err)
		return rateTimeout
	}
	return d
}

func runRate(r *run) error {
	var first *rateState
	st, err := measureSetup(r, func() (*rateState, error) {
		st, err := startRate(r)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = st
		}
		for k := range st.mix {
			if !bytes.Equal(first.mix[k].body, st.mix[k].body) || !bytes.Equal(first.expected[k], st.expected[k]) {
				r.fail("set-ups disagree on snapshot %d", k)
			}
		}
		return st, nil
	}, func(st *rateState) { st.close() })
	if err != nil {
		return err
	}
	defer st.close()
	if !r.traced {
		lat := make([]float64, 0, 1<<15)
		start := time.Now()
		for i := 0; time.Since(start) < r.seconds; i++ {
			lat = append(lat, us(r.request(st, i)))
		}
		wall := time.Since(start)
		r.set("throughput_per_s", float64(len(lat))/wall.Seconds(), "1/s")
		r.set("latency_p50_us", median(lat), "us")
		r.set("latency_p90_us", quantile(lat, 0.9), "us")
		return nil
	}

	// Loopback, alternating blocks of untraced and traced requests.
	var plainLat []float64
	var plainWall, tracedWall, tracedRT time.Duration
	budget := r.seconds * 6 / 10
	for i := 0; plainWall+tracedWall < budget; {
		t0 := time.Now()
		for end := i + rateBlock; i < end; i++ {
			plainLat = append(plainLat, us(r.request(st, i)))
		}
		t1 := time.Now()
		for end := i + rateBlock; i < end; i++ {
			s := time.Now()
			tracedRT += r.request(st, i)
			r.tr.record(0, int64(i), "http.roundtrip", s, time.Now())
		}
		plainWall += t1.Sub(t0)
		tracedWall += time.Since(t1)
	}
	tracedN := float64(len(plainLat)) // equal block counts on both sides
	rt := us(tracedRT) / tracedN

	// In-process layer timings over the same mix: the handler, then the
	// estimator, its prediction and latency search, and the controller,
	// configured as the rate handler configures them.
	est := core.NewEstimator()
	cfg := safety.DefaultControllerConfig()
	l0 := 1 / cfg.MaxFPR
	var pred predict.Predictor = predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1}
	ctrl := safety.NewController(est, pred, cfg)
	var (
		e                                     core.Estimate
		esc                                   core.EstimateScratch
		trajs                                 []world.Trajectory
		tpts                                  []world.TrajectoryPoint
		handler, estimate, predictT, tolT, ct time.Duration
		nTraj, nConflict, n                   int
	)
	w := &memWriter{header: http.Header{}}
	deadline := time.Now().Add(r.seconds - budget)
	for i := 0; time.Now().Before(deadline) || i < len(st.mix); i++ {
		k := i % len(st.mix)
		s := st.mix[k]
		op := int64(i)
		h0, h1 := st.serveInProcess(w, s.body)
		r.tr.record(0, op, "server.handler", h0, h1)
		if w.code != http.StatusOK || !bytes.Equal(w.body.Bytes(), st.expected[k]) {
			r.fail("snapshot %d: in-process handler changed its answer", k)
		}
		ego := worldAgent(s.req.Ego)
		if ego.ID == "" {
			ego.ID = world.EgoID
		}
		actors := make([]world.Agent, len(s.req.Actors))
		for j, a := range s.req.Actors {
			actors[j] = worldAgent(a)
		}
		now := s.req.Time
		perActor := make([][2]int, len(actors))

		t0 := time.Now()
		est.EstimateOnlineInto(&e, &esc, now, ego, actors, pred, l0)
		t1 := time.Now()
		ctrl.Reset()
		ctrl.RatesFromEstimateReuse(now, ego, actors, e)
		t2 := time.Now()
		trajs, tpts = trajs[:0], tpts[:0]
		for j, a := range actors {
			from := len(trajs)
			trajs, tpts = predict.AppendForAgent(pred, trajs, tpts, a, now, est.Params.Horizon, 0.1)
			perActor[j] = [2]int{from, len(trajs)}
		}
		t3 := time.Now()
		egoState := core.EgoFromAgent(ego)
		for j, a := range actors {
			for _, tr := range trajs[perActor[j][0]:perActor[j][1]] {
				if !core.TolerableLatency(egoState, tr, [2]float64{a.Length, a.Width}, l0, est.Params).NoThreat {
					nConflict++
				}
			}
		}
		t4 := time.Now()
		r.tr.record(0, op, "core.estimate", t0, t1)
		r.tr.record(0, op, "safety.controller", t1, t2)
		r.tr.record(0, op, "predict.predict", t2, t3)
		r.tr.record(0, op, "core.tolerable_latency", t3, t4)
		handler += h1.Sub(h0)
		estimate += t1.Sub(t0)
		ct += t2.Sub(t1)
		predictT += t3.Sub(t2)
		tolT += t4.Sub(t3)
		nTraj += len(trajs)
		n++
	}
	per := func(d time.Duration) float64 { return us(d) / float64(n) }
	r.set("server.handler_us", per(handler), "us")
	r.set("core.estimate_us", per(estimate), "us")
	r.set("safety.controller_us", per(ct), "us")
	r.set("predict.predict_us", per(predictT), "us")
	r.set("predict.trajectories", float64(nTraj)/float64(n), "count")
	r.set("core.tolerable_latency_us", per(tolT), "us")
	r.set("core.conflict_share", float64(nConflict)/float64(nTraj), "ratio")
	r.set("server.codec_us", per(handler-estimate-ct), "us")
	r.set("http.overhead_us", rt-per(handler), "us")
	r.set("latency_p99_us", quantile(plainLat, 0.99), "us")
	r.set("bench.trace_overhead_share", 1-plainWall.Seconds()/tracedWall.Seconds(), "ratio")
	r.set("bench.unaccounted_share", 1-per(estimate+ct)/rt, "ratio")
	return nil
}
