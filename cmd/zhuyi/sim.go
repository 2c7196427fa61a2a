package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// cmdSim executes one closed-loop run of a named scenario at a fixed
// per-camera frame processing rate and writes the recorded trace as
// JSON Lines, the input format of estimate and render.
func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	name := fs.String("scenario", scenario.CutOut, "scenario name; any registered scenario, e.g.: "+strings.Join(scenario.Names(), ", "))
	fpr := fs.Float64("fpr", 30, "uniform per-camera frame processing rate")
	seed := fs.Int64("seed", 1, "noise/jitter seed")
	out := fs.String("o", "", "output trace path (default stdout)")
	fs.Parse(args)

	sc, ok := scenario.Lookup(*name)
	if !ok {
		return fmt.Errorf("sim: unknown scenario %q (try 'zhuyi scenarios list')", *name)
	}
	res, err := metrics.RunScenario(sc, *fpr, *seed)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := res.Trace.Write(w); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if res.Collided() {
		fmt.Fprintf(os.Stderr, "zhuyi sim: COLLISION at t=%.2fs with %s\n", res.Collision.Time, res.Collision.ActorID)
	} else {
		fmt.Fprintf(os.Stderr, "zhuyi sim: completed safely (%d rows, min gap %.2f m)\n", res.Trace.Len(), res.MinBumperGap)
	}
	return nil
}

// cmdRender replays a recorded trace as ego-relative ASCII top views,
// a quick visual check of scenario choreography.
func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	path := fs.String("trace", "", "JSONL trace recorded by 'zhuyi sim'")
	every := fs.Float64("every", 1.0, "seconds between frames")
	ahead := fs.Float64("ahead", 100, "meters ahead of the ego in view")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("render: -trace is required")
	}
	f, err := os.Open(*path)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("render: %w", err)
	}
	v := render.DefaultViewport()
	v.Ahead = *ahead
	fmt.Printf("# %s (run at %g FPR, seed %d)\n\n", tr.Meta.Scenario, tr.Meta.FPR, tr.Meta.Seed)
	fmt.Print(render.Strip(tr, *every, v))
	return nil
}
