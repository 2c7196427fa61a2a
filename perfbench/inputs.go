package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/sensor"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vehicle"
	"repro/internal/world"
)

// Every input is a function of the workload seed: the campaign point
// seeds, the scenarios and rates the rate snapshots come from, and the
// rows picked out of those traces.

const (
	// paperSeeds is the paper's validation protocol: ten seeded runs per
	// (scenario, rate) point.
	paperSeeds = 10
	// snapshotTraces and snapshotRows shape the rate workload's request
	// mix: 9 scenarios × 6 traces × 16 rows = 864 distinct requests.
	snapshotTraces = 6
	snapshotRows   = 16
)

// rng is a splitmix64 stream: tiny, fully specified, and stable across
// Go releases, so a seed names the same inputs forever.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose from the
// workload seed.
func newRNG(seed int64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: uint64(seed) ^ h.Sum64()}
}

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

// simSeed draws a positive simulator seed.
func (g *rng) simSeed() int64 { return int64(g.next()%(1<<31)) + 1 }

// point is one campaign point: a seeded run of a scenario at a rate.
type point struct {
	sc   scenario.Scenario
	fpr  float64
	seed int64
}

func (p point) String() string { return fmt.Sprintf("%s fpr=%g seed=%d", p.sc.Name, p.fpr, p.seed) }

// pointSeeds derives the paper protocol's ten distinct run seeds.
func pointSeeds(seed int64) []int64 {
	g := newRNG(seed, "points")
	seen := map[int64]bool{}
	var out []int64
	for len(out) < paperSeeds {
		s := g.simSeed()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// table1Points is the Table-1 campaign: the nine scenarios × the
// twelve-rate grid × the given seeds, in that nesting order.
func table1Points(seeds []int64) []point {
	var pts []point
	for _, sc := range scenario.All() {
		for _, fpr := range metrics.DefaultFPRGrid() {
			for _, s := range seeds {
				pts = append(pts, point{sc: sc, fpr: fpr, seed: s})
			}
		}
	}
	return pts
}

// summaryPoints is table1_summary's point set (1080 points).
func summaryPoints(seed int64) []point { return table1Points(pointSeeds(seed)) }

// sharedPoints is the one-seed point set (108 points) the store
// workloads run. table1_summary runs every one of them too.
func sharedPoints(seed int64) []point { return table1Points(pointSeeds(seed)[:1]) }

func jobsFor(pts []point) []engine.Job {
	jobs := make([]engine.Job, len(pts))
	for i, p := range pts {
		jobs[i] = engine.Job{Scenario: p.sc, FPR: p.fpr, Seed: p.seed}
	}
	return jobs
}

func encodePoints(pts []point) []byte {
	var b bytes.Buffer
	for _, p := range pts {
		fmt.Fprintln(&b, p)
	}
	return b.Bytes()
}

// digest condenses what a campaign point answers — the point itself,
// collision, frames processed per camera and minimum gap — to 64 bits.
// The recording level and the tier that answered do not enter it, so
// summary runs, full runs and disk hits of one point must agree.
func digest(p point, res *sim.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%x|%d|", p.sc.Name, math.Float64bits(p.fpr), p.seed)
	if c := res.Collision; c != nil {
		fmt.Fprintf(h, "collision %x %s|", math.Float64bits(c.Time), c.ActorID)
	} else {
		h.Write([]byte("no collision|"))
	}
	cams := make([]string, 0, len(res.FramesProcessed))
	for c := range res.FramesProcessed {
		cams = append(cams, c)
	}
	sort.Strings(cams)
	for _, c := range cams {
		fmt.Fprintf(h, "%s=%d|", c, res.FramesProcessed[c])
	}
	fmt.Fprintf(h, "gap %x", math.Float64bits(res.MinBumperGap))
	return h.Sum64()
}

// snapshot is one /v1/rate request of the mix: its JSON body and the
// decoded request the in-process layer timings feed to the estimator.
type snapshot struct {
	body []byte
	req  server.RateRequest
}

// rateMix draws the rate workload's request mix, stratified so that
// every seed's mix has the same shape: for each Table-1 scenario,
// snapshotTraces full-level traces at a seeded rate and run seed, and
// from each trace snapshotRows kinematic rows picked at random.
func rateMix(seed int64) ([]snapshot, error) {
	g := newRNG(seed, "rate")
	grid := metrics.DefaultFPRGrid()
	var mix []snapshot
	for _, sc := range scenario.All() {
		for t := 0; t < snapshotTraces; t++ {
			fpr, s := grid[g.intn(len(grid))], g.simSeed()
			cfg := sc.Build(fpr, s)
			cfg.Record = trace.LevelFull
			res, err := sim.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("snapshot source %s fpr=%g seed=%d: %w", sc.Name, fpr, s, err)
			}
			tr := res.Trace
			if tr.Len() == 0 {
				return nil, fmt.Errorf("snapshot source %s fpr=%g seed=%d: empty trace", sc.Name, fpr, s)
			}
			for k := 0; k < snapshotRows; k++ {
				req := requestAt(tr, g.intn(tr.Len()))
				body, err := json.Marshal(req)
				if err != nil {
					return nil, fmt.Errorf("encode snapshot: %w", err)
				}
				mix = append(mix, snapshot{body: body, req: req})
			}
		}
	}
	// Interleave the scenarios, so any run of consecutive requests is a
	// fair sample of the mix.
	for i := len(mix) - 1; i > 0; i-- {
		j := g.intn(i + 1)
		mix[i], mix[j] = mix[j], mix[i]
	}
	return mix, nil
}

// requestAt turns trace row i into a rate request carrying the rates
// the analyzed cameras operated at, so the response includes the
// safety check.
func requestAt(tr *trace.Trace, i int) server.RateRequest {
	row := tr.Rows[i]
	req := server.RateRequest{Time: row.Time, Ego: wireAgent(row.Ego), Operating: map[string]float64{}}
	for _, a := range row.Actors {
		req.Actors = append(req.Actors, wireAgent(a))
	}
	for _, cam := range sensor.AnalyzedCameras() {
		req.Operating[cam] = tr.OperatingRate(i, cam)
	}
	return req
}

func wireAgent(a world.Agent) server.AgentState {
	return server.AgentState{
		ID: a.ID, X: a.Pose.Pos.X, Y: a.Pose.Pos.Y, Heading: a.Pose.Heading,
		Speed: a.Speed, Accel: a.Accel, LatVel: a.LatVel,
		Length: a.Length, Width: a.Width, Lane: a.Lane, Static: a.Static,
	}
}

// worldAgent lowers a wire agent the way the rate handler documents:
// a zero footprint defaults to the passenger-car preset.
func worldAgent(a server.AgentState) world.Agent {
	car := vehicle.Car()
	if a.Length <= 0 {
		a.Length = car.Length
	}
	if a.Width <= 0 {
		a.Width = car.Width
	}
	return world.Agent{
		ID: a.ID, Pose: geom.Pose{Pos: geom.Vec2{X: a.X, Y: a.Y}, Heading: a.Heading},
		Speed: a.Speed, Accel: a.Accel, LatVel: a.LatVel,
		Length: a.Length, Width: a.Width, Lane: a.Lane, Static: a.Static,
	}
}

// inputBytes is the canonical byte form of a workload's generated
// inputs: what the program receives for this seed.
func inputBytes(workload string, seed int64) ([]byte, error) {
	switch workload {
	case "table1_summary":
		return encodePoints(summaryPoints(seed)), nil
	case "table1_store_cold", "store_warm":
		return encodePoints(sharedPoints(seed)), nil
	case "rate_loopback":
		mix, err := rateMix(seed)
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		for _, s := range mix {
			b.Write(s.body)
			b.WriteByte('\n')
		}
		return b.Bytes(), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}
