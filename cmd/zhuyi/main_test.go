package main

// Flag-validation wall for the corpus-producing subcommands: counts
// that would silently produce empty output (zero/negative corpora,
// seeds, budgets) must be rejected with an error, not exit 0.

import (
	"path/filepath"
	"strings"
	"testing"
)

func wantErr(t *testing.T, name string, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: accepted, want error containing %q", name, frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("%s: error %q does not mention %q", name, err, frag)
	}
}

func TestScenariosGenerateRejectsZeroCount(t *testing.T) {
	wantErr(t, "generate -n 0", cmdScenariosGenerate([]string{"-n", "0"}), "-n must be positive")
	wantErr(t, "generate -n -3", cmdScenariosGenerate([]string{"-n", "-3"}), "-n must be positive")
	wantErr(t, "generate -check-seeds -1",
		cmdScenariosGenerate([]string{"-n", "1", "-check-seeds", "-1"}), "-check-seeds must be non-negative")
}

func TestScenariosDescribeRejectsZeroRate(t *testing.T) {
	wantErr(t, "describe -fpr 0", cmdScenariosDescribe([]string{"-fpr", "0"}), "-fpr must be positive")
}

func TestScenariosSearchRejectsZeroBudgets(t *testing.T) {
	wantErr(t, "search -generations 0",
		cmdScenariosSearch([]string{"-generations", "0"}), "-generations must be positive")
	wantErr(t, "search -population 0",
		cmdScenariosSearch([]string{"-population", "0"}), "-population must be positive")
	wantErr(t, "search -mrf-seeds 0",
		cmdScenariosSearch([]string{"-mrf-seeds", "0"}), "-mrf-seeds must be positive")
	wantErr(t, "search -top -1",
		cmdScenariosSearch([]string{"-top", "-1"}), "-top must be non-negative")
	wantErr(t, "search bad family",
		cmdScenariosSearch([]string{"-families", "no-such-family"}), "unknown family")
	wantErr(t, "search bad rate",
		cmdScenariosSearch([]string{"-fprs", "0"}), "bad rate")
}

func TestCampaignRejectsZeroSeeds(t *testing.T) {
	wantErr(t, "campaign -seeds 0", cmdCampaign([]string{"-seeds", "0"}), "-seeds must be positive")
	wantErr(t, "record -seeds 0",
		cmdRecord([]string{"-store", t.TempDir(), "-seeds", "0"}), "-seeds must be positive")
}

// TestSimTraceFeedsEstimate: the trace 'zhuyi sim' writes is the input
// 'zhuyi estimate' and 'zhuyi render' read.
func TestSimTraceFeedsEstimate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if err := cmdSim([]string{"-scenario", "cut-out-fast", "-fpr", "30", "-seed", "1", "-o", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEstimate([]string{"-trace", path, "-every", "0.5"}); err != nil {
		t.Fatalf("estimate on the sim trace: %v", err)
	}
	if err := cmdRender([]string{"-trace", path, "-every", "2"}); err != nil {
		t.Fatalf("render on the sim trace: %v", err)
	}
	wantErr(t, "sim unknown scenario", cmdSim([]string{"-scenario", "no-such-scenario"}), "unknown scenario")
	wantErr(t, "render without -trace", cmdRender(nil), "-trace is required")
}
