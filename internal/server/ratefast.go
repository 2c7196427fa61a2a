package server

// ratefast.go is the pooled zero-allocation serving path behind
// POST /v1/rate. Each request borrows a rateScratch from a sync.Pool:
// the body buffer, decoded request, estimator scratch, controller, and
// response buffer all live in it and are reused across requests, so a
// steady-state rate request stays within a small fixed allocation
// budget (pinned by TestRateServeAllocBudget and gated in CI via
// BENCH_serve.json). The scratch also carries a stable histogram shard
// hint, so latency self-recording never contends across pooled
// requests. Admission priority (internal/admission) brackets the
// compute; the engine's campaign workers yield while any rate request
// is in flight.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/predict"
	"repro/internal/safety"
	"repro/internal/sensor"
	"repro/internal/world"
)

// maxInternEntries bounds the per-scratch ID intern table; a table
// that outgrows it (an adversarial stream of unique IDs) is dropped
// and rebuilt rather than growing without bound.
const maxInternEntries = 4096

// rateStatusFallback signals the handler to re-encode through the
// reflective writeJSON path: a non-finite float reached the wire and
// the legacy behavior (a 500 from MarshalIndent) must be preserved.
const rateStatusFallback = -1

// rateWireReq is the decoded RateRequest in scratch form. Actors keeps
// its backing array across requests (zeroed between them) and
// Operating is cleared, not reallocated.
type rateWireReq struct {
	Time      float64
	Ego       AgentState
	Actors    []AgentState
	Operating map[string]float64
}

// rateScratch is the per-request working set of the pooled path.
type rateScratch struct {
	body   []byte // request body, read fully before decoding
	out    []byte // encoded response
	strbuf []byte // string unescape scratch

	// ids interns agent IDs and operating-map keys: a fleet posting
	// the same snapshot shape allocates each distinct string once per
	// pooled scratch, ever.
	ids map[string]string

	req     rateWireReq
	actorsW []world.Agent // lowered world-model actors

	est  *core.Estimator
	pred predict.Predictor // pre-boxed: converting per call allocates
	cfg  safety.ControllerConfig
	l0   float64
	ctrl *safety.Controller
	esc  core.EstimateScratch

	// Computed per request, consumed by the encoders.
	e        core.Estimate
	rates    map[string]float64
	sumFPR   float64
	maxFPR   float64
	hasCheck bool
	chk      safety.CheckResult

	analyzed []string // sensor.AnalyzedCameras(), cached
	keys     []string // sorted map keys scratch for encoding

	// shard is this scratch's stable histogram shard hint: pooled
	// scratches spread across shards once and stay there, avoiding
	// both rotor contention and cross-scratch false sharing.
	shard uint32
}

var rateShardRotor atomic.Uint32

var rateScratchPool = sync.Pool{New: func() any { return newRateScratch() }}

func newRateScratch() *rateScratch {
	est := core.NewEstimator()
	cfg := safety.DefaultControllerConfig()
	var pred predict.Predictor = predict.MultiHypothesis{Horizon: est.Params.Horizon, Dt: 0.1}
	sc := &rateScratch{
		body:     make([]byte, 0, 4096),
		out:      make([]byte, 0, 1024),
		ids:      make(map[string]string, 64),
		est:      est,
		pred:     pred,
		cfg:      cfg,
		l0:       1 / cfg.MaxFPR,
		ctrl:     safety.NewController(est, pred, cfg),
		analyzed: sensor.AnalyzedCameras(),
		shard:    rateShardRotor.Add(1) % hist.NumShards,
	}
	sc.req.Operating = make(map[string]float64, 8)
	return sc
}

func getRateScratch() *rateScratch   { return rateScratchPool.Get().(*rateScratch) }
func putRateScratch(sc *rateScratch) { rateScratchPool.Put(sc) }

// reset restores the decode destination to the all-zero state a fresh
// json.Unmarshal target would have. The actor backing array is zeroed
// through its full capacity so the duplicate-key merge semantics the
// decoder replicates start from clean memory.
func (sc *rateScratch) reset() {
	sc.req.Time = 0
	sc.req.Ego = AgentState{}
	as := sc.req.Actors[:cap(sc.req.Actors)]
	for i := range as {
		as[i] = AgentState{}
	}
	sc.req.Actors = as[:0]
	clear(sc.req.Operating)
	if len(sc.ids) > maxInternEntries {
		clear(sc.ids)
	}
}

// intern returns the canonical string for b, allocating only the first
// time a given ID or key is seen by this scratch.
func (sc *rateScratch) intern(b []byte) string {
	if s, ok := sc.ids[string(b)]; ok { // compiler-optimized, no alloc
		return s
	}
	s := string(b)
	sc.ids[s] = s
	return s
}

// readBody drains r into the reused body buffer.
func (sc *rateScratch) readBody(r io.Reader) error {
	sc.body = sc.body[:0]
	for {
		if len(sc.body) == cap(sc.body) {
			sc.body = append(sc.body, 0)[:len(sc.body)]
		}
		n, err := r.Read(sc.body[len(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// serveRate runs the pooled path end to end: read, decode, validate,
// compute, encode. On success it returns (0, "") with the response
// encoded in sc.out; otherwise the HTTP status and message for
// writeError, or rateStatusFallback. Validation order and error
// messages match the pre-pooled handler exactly. Error paths may
// allocate — they are off the hot path.
func (s *Server) serveRate(sc *rateScratch, body io.Reader) (int, string) {
	sc.reset()
	if err := sc.readBody(body); err != nil {
		return 400, "bad rate request: " + err.Error()
	}
	d := rateDecoder{sc: sc, data: sc.body}
	if err := d.decodeRequest(); err != nil {
		return 400, "bad rate request: " + err.Error()
	}

	if sc.req.Ego.ID == "" {
		sc.req.Ego.ID = world.EgoID
	}
	ego := agentFromWire(sc.req.Ego)
	sc.actorsW = sc.actorsW[:0]
	for i := range sc.req.Actors {
		if sc.req.Actors[i].ID == "" {
			return 400, fmt.Sprintf("actor %d: missing id", i)
		}
		sc.actorsW = append(sc.actorsW, agentFromWire(sc.req.Actors[i]))
	}
	if err := ego.Validate(); err != nil {
		return 400, "ego: " + err.Error()
	}
	for i := range sc.actorsW {
		if err := sc.actorsW[i].Validate(); err != nil {
			return 400, err.Error()
		}
	}

	// Same semantics as a fresh estimator + controller per request
	// (the endpoint is stateless); Reset clears the hysteresis state
	// while keeping capacity.
	sc.est.EstimateOnlineInto(&sc.e, &sc.esc, sc.req.Time, ego, sc.actorsW, sc.pred, sc.l0)
	sc.ctrl.Reset()
	sc.rates = sc.ctrl.RatesFromEstimateReuse(sc.req.Time, ego, sc.actorsW, sc.e)
	sc.sumFPR = sc.e.SumFPR(sc.analyzed)
	sc.maxFPR = sc.e.MaxFPR(sc.analyzed)
	sc.hasCheck = len(sc.req.Operating) > 0
	if sc.hasCheck {
		safety.CheckInto(&sc.chk, sc.e, sc.req.Operating)
	}

	if !sc.encodeJSONResponse() {
		return rateStatusFallback, ""
	}
	return 0, ""
}

// fallbackResponse rebuilds the wire response allocating freely; only
// the non-finite-float fallback uses it, to reproduce the exact legacy
// writeJSON behavior (a 500 from MarshalIndent).
func (sc *rateScratch) fallbackResponse() RateResponse {
	resp := RateResponse{
		Time:      sc.e.Time,
		CameraFPR: sc.e.CameraFPR,
		SumFPR:    sc.sumFPR,
		MaxFPR:    sc.maxFPR,
		Rates:     sc.rates,
	}
	if sc.hasCheck {
		rc := RateCheck{OK: sc.chk.OK, Action: sc.chk.Action.String()}
		for _, a := range sc.chk.Alarms {
			rc.Alarms = append(rc.Alarms, RateAlarm{Camera: a.Camera, Required: a.Required, Operating: a.Operating})
		}
		resp.Check = &rc
	}
	return resp
}
