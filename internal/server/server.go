// Package server is the network-facing campaign service: an HTTP API
// exposing the whole stack — batched campaigns, MRF searches, the §3.2
// online rate estimate, the scenario registry and generator, and the
// persistent store — behind one shared engine.Engine, so concurrent
// identical requests coalesce (singleflight), repeated points answer
// from the memory cache, and archived points answer from the store's
// disk tier without simulating. GET /v1/stats surfaces the
// fresh/memory/disk counters as evidence.
//
// This is the deployment shape the paper argues for: runtime
// rate/latency estimation as a queryable service that a fleet asks
// continuously, not a batch CLI. The `zhuyi serve` subcommand wires it
// to a listener with graceful drain; zhuyi.Client is the typed Go
// client. The endpoint reference lives in docs/api.md and is pinned to
// Routes() by test; the layer diagram placing this package between the
// engine/store tier and the CLIs/facade is in ARCHITECTURE.md.
//
// POST /v1/campaign streams NDJSON: one CampaignLine per point in
// completion order (the engine's RunBatchFunc hook), then a stats
// trailer — a client sees early points while late ones still simulate.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/metrics"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/vehicle"
	"repro/internal/world"
)

// maxRequestBytes bounds request bodies; a campaign request is a list
// of points, so even huge campaigns fit comfortably.
const maxRequestBytes = 8 << 20

// defaultMaxCampaignPoints caps points per campaign request.
const defaultMaxCampaignPoints = 100_000

// Options configures a Server.
type Options struct {
	// Engine is the shared run engine every query routes through. nil
	// builds a private engine from Workers and Store; when non-nil,
	// Workers is ignored and the store tier is the engine's own.
	Engine *engine.Engine
	// Workers sizes the built engine's pool (0 = GOMAXPROCS). Ignored
	// when Engine is set.
	Workers int
	// Store attaches the persistent tier to the built engine and backs
	// the /v1/store endpoints. Ignored when Engine is set (the engine's
	// attached store is used instead).
	Store *store.Store
	// Registry resolves scenario names; nil uses scenario.Default().
	Registry *scenario.Registry
	// MaxCampaignPoints caps points per campaign request (0 = 100000).
	MaxCampaignPoints int
	// Admission is the priority gate bracketing /v1/rate requests. nil
	// builds a private gate; when the engine is also built privately the
	// gate is shared with it, so campaign workers yield to rate traffic.
	// Callers that pass their own Engine should pass the same gate to
	// both (as `zhuyi serve` does) for admission to take effect.
	Admission *admission.Gate
	// Latency overrides the per-route latency histogram set; nil builds
	// a private one. A fabric coordinator shares its set with its inner
	// server so both layers' locally answered requests merge.
	Latency *LatencySet
}

// Server is the campaign service. Construct with New; serve its
// Handler with net/http. A Server is safe for concurrent use — all run
// fan-out goes through one engine, which is the point.
type Server struct {
	eng       *engine.Engine
	st        *store.Store
	reg       *scenario.Registry
	maxPts    int
	gate      *admission.Gate
	lat       *LatencySet
	rateHist  *hist.Histogram // the rate route's histogram, cached
	requests  atomic.Int64
	campaigns atomic.Int64
	points    atomic.Int64
}

// New builds a Server over one shared engine. A privately built engine
// records at summary level: every response on this API carries run
// summaries, never traces, so per-step rows would be materialized only
// to be discarded — except for store-archived points, which the engine
// upgrades to full so the persistent tier stays complete. Callers that
// pass their own Engine keep its recording policy.
func New(opts Options) *Server {
	gate := opts.Admission
	if gate == nil {
		gate = admission.NewGate(0)
	}
	eng := opts.Engine
	st := opts.Store
	if eng == nil {
		eng = engine.New(engine.Options{Workers: opts.Workers, Store: st, Record: trace.LevelSummary, Admission: gate})
	} else {
		st = eng.Store()
	}
	reg := opts.Registry
	if reg == nil {
		reg = scenario.Default()
	}
	maxPts := opts.MaxCampaignPoints
	if maxPts <= 0 {
		maxPts = defaultMaxCampaignPoints
	}
	lat := opts.Latency
	if lat == nil {
		lat = NewLatencySet()
	}
	return &Server{
		eng: eng, st: st, reg: reg, maxPts: maxPts,
		gate: gate, lat: lat, rateHist: lat.Histogram("POST /v1/rate"),
	}
}

// Engine returns the server's shared engine (the `zhuyi serve` stats
// line reads it on shutdown).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the service's HTTP handler, built from Routes().
// Every route records into its latency histogram; the rate path
// records itself (with a pooled shard hint) instead of going through
// the generic wrapper.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range Routes() {
		h, ok := s.handlerFor(r)
		if !ok {
			panic(fmt.Sprintf("server: route %s %s has no handler", r.Method, r.Pattern))
		}
		key := r.Method + " " + r.Pattern
		if key != "POST /v1/rate" {
			h = s.lat.Timed(key, h)
		}
		mux.HandleFunc(key, h)
	}
	return s.counting(mux)
}

// handlerFor maps a route descriptor to its handler. Every entry of
// Routes() must resolve; Handler panics at construction otherwise, so
// a table/handler mismatch cannot ship.
func (s *Server) handlerFor(r Route) (http.HandlerFunc, bool) {
	switch r.Pattern {
	case "/healthz":
		return s.handleHealthz, true
	case "/v1/campaign":
		return s.handleCampaign, true
	case "/v1/mrf/{scenario}":
		return s.handleMRF, true
	case "/v1/rate":
		return s.handleRate, true
	case "/v1/scenarios":
		return s.handleScenarios, true
	case "/v1/search":
		return s.handleSearch, true
	case "/v1/stats":
		return s.handleStats, true
	case "/v1/store":
		return s.handleStore, true
	case "/v1/store/manifest":
		return s.handleStoreManifest, true
	case "/v1/store/peek":
		return s.handleStorePeek, true
	case "/v1/store/diff":
		return s.handleStoreDiff, true
	}
	return nil, false
}

// counting wraps the mux with the request counter.
func (s *Server) counting(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
		next.ServeHTTP(w, r)
	})
}

// writeJSON marshals before writing any header, so an encoding failure
// (e.g. a non-finite float reaching a wire type) surfaces as a 500
// instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\": %q}\n", "response encoding failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleCampaign is the tentpole endpoint: a batch of points streamed
// back as NDJSON, one line per point in completion order, then a stats
// trailer. Unknown scenarios fail the whole request up front (400) —
// nothing has been scheduled yet at that point. Run failures do not:
// the stream is already flowing, so they ride in per-point Error
// fields and the trailer's Error summary.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad campaign request: %v", err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "campaign has no points")
		return
	}
	if len(req.Points) > s.maxPts {
		writeError(w, http.StatusBadRequest, "campaign has %d points (limit %d)", len(req.Points), s.maxPts)
		return
	}
	jobs := make([]engine.Job, len(req.Points))
	for i, pt := range req.Points {
		sc, ok := s.reg.Lookup(pt.Scenario)
		if !ok {
			writeError(w, http.StatusBadRequest, "point %d: unknown scenario %q (GET /v1/scenarios)", i, pt.Scenario)
			return
		}
		if pt.FPR <= 0 {
			writeError(w, http.StatusBadRequest, "point %d: non-positive fpr %g", i, pt.FPR)
			return
		}
		jobs[i] = engine.Job{Scenario: sc, FPR: pt.FPR, Seed: pt.Seed}
	}
	s.campaigns.Add(1)
	s.points.Add(int64(len(jobs)))

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(line CampaignLine) {
		_ = enc.Encode(line) // Encode appends the newline NDJSON needs
		if flusher != nil {
			flusher.Flush()
		}
	}
	batch, err := s.eng.RunBatchFunc(r.Context(), jobs, func(i int, o engine.Outcome) {
		pr := outcomeToPointResult(i, o)
		emit(CampaignLine{Point: &pr})
	})
	trailer := CampaignLine{}
	if batch != nil {
		st := statsToWire(batch.Stats)
		trailer.Stats = &st
	}
	if err != nil {
		trailer.Error = err.Error()
	}
	emit(trailer)
}

func (s *Server) handleMRF(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("scenario")
	sc, ok := s.reg.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario %q (GET /v1/scenarios)", name)
		return
	}
	seeds, fprs, err := ParseMRFQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// One cheap GET must not schedule unbounded work on the shared
	// engine: the search costs at most seeds x len(grid) points, capped
	// by the same limit as a campaign request.
	if seeds*len(fprs) > s.maxPts {
		writeError(w, http.StatusBadRequest, "mrf search of %d seeds x %d rates exceeds the %d-point limit", seeds, len(fprs), s.maxPts)
		return
	}
	m, err := metrics.FindMRFContext(r.Context(), s.eng, sc, fprs, seeds)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "mrf %s: %v", name, err)
		return
	}
	writeJSON(w, http.StatusOK, MRFResponseFor(m, fprs))
}

// ParseMRFQuery parses the seeds/fprs query parameters of
// GET /v1/mrf/{scenario}, defaulting to 10 seeds on the default FPR
// grid. The fabric coordinator parses with the same function before
// deciding whether the shared manifest can answer, so worker and
// coordinator cannot disagree about the searched grid.
func ParseMRFQuery(q url.Values) (seeds int, fprs []float64, err error) {
	seeds = 10
	if v := q.Get("seeds"); v != "" {
		n, aerr := strconv.Atoi(v)
		if aerr != nil || n <= 0 {
			return 0, nil, fmt.Errorf("bad seeds %q", v)
		}
		seeds = n
	}
	fprs = metrics.DefaultFPRGrid()
	if v := q.Get("fprs"); v != "" {
		parsed, perr := parseFloats(v)
		if perr != nil {
			return 0, nil, fmt.Errorf("bad fprs %q: %v", v, perr)
		}
		// The MRF search walks the grid descending from the last element
		// and reads fprs[i+1] as "the next-higher rate", so it requires
		// an ascending, duplicate-free grid; normalize user input.
		sort.Float64s(parsed)
		fprs = slices.Compact(parsed)
	}
	return seeds, fprs, nil
}

// MRFResponseFor shapes a completed MRF search into its wire form over
// the searched grid (shared with the fabric coordinator's warm path).
func MRFResponseFor(m metrics.MRF, fprs []float64) MRFResponse {
	resp := MRFResponse{Scenario: m.Scenario, MRF: m.Value, BelowGrid: m.BelowGrid(), Seeds: m.Seeds, Runs: m.Runs}
	if math.IsInf(m.Value, 1) {
		// "Unsafe at every tested rate" is not representable in JSON as
		// +Inf; flag it instead (the mirror of below_grid).
		resp.MRF, resp.AboveGrid = 0, true
	}
	for _, f := range fprs {
		if n, ok := m.Collisions[f]; ok {
			resp.Grid = append(resp.Grid, RatePoint{FPR: f, Collisions: n})
		}
	}
	return resp
}

// agentFromWire lowers a wire AgentState to a world.Agent, defaulting
// the footprint to the passenger-car preset.
func agentFromWire(a AgentState) world.Agent {
	car := vehicle.Car()
	if a.Length <= 0 {
		a.Length = car.Length
	}
	if a.Width <= 0 {
		a.Width = car.Width
	}
	return world.Agent{
		ID:     a.ID,
		Pose:   geomPose(a.X, a.Y, a.Heading),
		Speed:  a.Speed,
		Accel:  a.Accel,
		LatVel: a.LatVel,
		Length: a.Length,
		Width:  a.Width,
		Lane:   a.Lane,
		Static: a.Static,
	}
}

// handleRate is the pooled serving path: one borrowed scratch carries
// the request from raw bytes to encoded response with no per-request
// allocation on the hot path (see ratefast.go). The admission gate is
// held for the full decode-compute-encode span so campaign workers
// yield while this request runs; latency is self-recorded with the
// scratch's stable shard hint.
func (s *Server) handleRate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sc := getRateScratch()
	s.gate.Enter()
	code, msg := s.serveRate(sc, r.Body)
	s.gate.Leave()
	switch code {
	case 0:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(sc.out)
	case rateStatusFallback:
		// A non-finite float reached the JSON wire: reproduce the
		// legacy writeJSON behavior exactly (a 500 from MarshalIndent).
		writeJSON(w, http.StatusOK, sc.fallbackResponse())
	default:
		writeError(w, code, "%s", msg)
	}
	if s.rateHist != nil {
		s.rateHist.ObserveShard(time.Since(start), sc.shard)
	}
	putRateScratch(sc)
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if v := q.Get("corpus"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > 10_000 {
			writeError(w, http.StatusBadRequest, "bad corpus size %q (1..10000)", v)
			return
		}
		var seed int64 = 1
		if sv := q.Get("seed"); sv != "" {
			seed, err = strconv.ParseInt(sv, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad seed %q", sv)
				return
			}
		}
		var fams []scenario.Family
		for _, f := range splitComma(q.Get("families")) {
			fams = append(fams, scenario.Family(f))
		}
		opt := scenario.GenOptions{Seed: seed, Families: fams}
		if err := opt.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		specs := scenario.NewGenerator(opt).Generate(n)
		resp := ScenariosResponse{Generated: true, Seed: seed}
		for _, sp := range specs {
			resp.Scenarios = append(resp.Scenarios, scenario.InfoOf(sp))
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeJSON(w, http.StatusOK, ScenariosResponse{Scenarios: s.reg.Catalog(splitComma(q.Get("tags"))...)})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	es := s.eng.Stats()
	resp := StatsResponse{
		Workers: s.eng.Workers(),
		Engine:  EngineStatsToWire(es),
		Server: ServerStats{
			Requests:       s.requests.Load(),
			Campaigns:      s.campaigns.Load(),
			CampaignPoints: s.points.Load(),
		},
	}
	if s.st != nil {
		sum := s.st.Summarize()
		resp.Store = &sum
	}
	resp.Latency = s.lat.Snapshot()
	yields, waited := s.gate.Stats()
	resp.Admission = &AdmissionStats{
		RateInFlight: s.gate.Active(),
		Yields:       yields,
		WaitedMS:     float64(waited) / 1e6,
	}
	writeJSON(w, http.StatusOK, resp)
}

// requireStore answers nil when no persistent store is attached.
func (s *Server) requireStore(w http.ResponseWriter) *store.Store {
	if s.st == nil {
		writeError(w, http.StatusNotFound, "no persistent store attached (start with `zhuyi serve -store DIR`)")
		return nil
	}
	return s.st
}

func (s *Server) handleStore(w http.ResponseWriter, _ *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	_, err := os.Stat(replay.BaselinePath(st))
	writeJSON(w, http.StatusOK, StoreResponse{Dir: st.Dir(), Summary: st.Summarize(), Baselines: err == nil})
}

func (s *Server) handleStoreManifest(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	name := r.URL.Query().Get("scenario")
	entries := st.Entries()
	if name != "" {
		filtered := entries[:0]
		for _, e := range entries {
			if e.Scenario == name {
				filtered = append(filtered, e)
			}
		}
		entries = filtered
	}
	writeJSON(w, http.StatusOK, ManifestResponse{Entries: entries})
}

func (s *Server) handleStorePeek(w http.ResponseWriter, r *http.Request) {
	if s.requireStore(w) == nil {
		return
	}
	q := r.URL.Query()
	name := q.Get("scenario")
	sc, ok := s.reg.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario %q", name)
		return
	}
	fpr, err := strconv.ParseFloat(q.Get("fpr"), 64)
	if err != nil || fpr <= 0 {
		writeError(w, http.StatusBadRequest, "bad fpr %q", q.Get("fpr"))
		return
	}
	seed, err := strconv.ParseInt(q.Get("seed"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad seed %q", q.Get("seed"))
		return
	}
	ent, ok := s.eng.Peek(engine.Job{Scenario: sc, FPR: fpr, Seed: seed})
	if !ok {
		writeError(w, http.StatusNotFound, "point not archived: %s fpr %g seed %d", name, fpr, seed)
		return
	}
	writeJSON(w, http.StatusOK, ent)
}

func (s *Server) handleStoreDiff(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	base, err := replay.LoadBaselines(st)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeError(w, http.StatusNotFound, "no baselines in %s (run `zhuyi record` first)", st.Dir())
			return
		}
		writeError(w, http.StatusInternalServerError, "baselines: %v", err)
		return
	}
	rep, err := replay.Run(r.Context(), st, replay.Options{})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "replay: %v", err)
		return
	}
	divs := replay.Diff(base, rep.Summaries)
	resp := DiffResponse{Runs: len(rep.Summaries), Baselines: len(base), Clean: len(divs) == 0}
	for _, d := range divs {
		resp.Divergences = append(resp.Divergences, d.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

func geomPose(x, y, heading float64) geom.Pose {
	return geom.Pose{Pos: geom.Vec2{X: x, Y: y}, Heading: heading}
}

// splitComma parses a comma-separated flag value, trimming whitespace
// and dropping empty items.
func splitComma(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// parseFloats parses a comma-separated positive rate list.
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, item := range splitComma(s) {
		f, err := strconv.ParseFloat(item, 64)
		if err != nil || f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("bad rate %q", item)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty rate list")
	}
	return out, nil
}
