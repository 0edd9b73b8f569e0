package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// and benchmarked workloads the program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		if w.benchmarked {
			want = append(want, w.name+": "+w.why)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %q, program runs %q", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		var g, w []metricDef
		for _, m := range got {
			g = append(g, metricDef{m.Name, m.Unit})
		}
		w = append(w, defs...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("BENCHMARK.json %s metrics %v, program reports %v", kind, g, w)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func testRun(t *testing.T, cfg config) result {
	t.Helper()
	cfg.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
	cfg.env = environment(cfg.seed)
	res, err := run(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCorruptedDigestFailsRun shows that the pinned digests are checked:
// the real ones pass and one corrupted digest fails its whole block of
// ops and the run.
func TestCorruptedDigestFailsRun(t *testing.T) {
	w, err := workloadByName("estimate-sparse")
	if err != nil {
		t.Fatal(err)
	}
	digests, err := pinnedDigests()
	if err != nil {
		t.Fatal(err)
	}
	pinned := digests[w.name]
	if len(pinned) == 0 {
		t.Fatal("digests.json pins nothing for estimate-sparse")
	}
	// A window of one digest block, and no rssOps, makes the run cover
	// exactly the first pinned block, however fast the machine.
	block := *w
	block.window, block.rssOps = digestBlock, 0
	cfg := config{workload: &block, seed: defaultSeed, pinned: pinned}
	if res := testRun(t, cfg); !res.Correct || res.Attempted != digestBlock {
		t.Fatalf("run with the pinned digests: correct %v, %d ops (want %d)", res.Correct, res.Attempted, digestBlock)
	}
	corrupted := append([]string(nil), pinned...)
	b := []byte(corrupted[0])
	b[0] ^= 1
	corrupted[0] = string(b)
	cfg.pinned = corrupted
	res := testRun(t, cfg)
	if res.Correct || res.Failed < digestBlock {
		t.Fatalf("run with a corrupted digest: correct %v, %d failed (want false, >= %d)", res.Correct, res.Failed, digestBlock)
	}
}

// exactMetrics are the per-layer counts a seed fixes: two runs with the
// same seed must report them identically.
var exactMetrics = []string{
	"core.tries_per_trial",
	"core.accept_ratio",
	"probe.probes_per_trial",
	"serve.fresh_per_op",
	"serve.absorbed",
	"cache.hit_ratio",
	"dispatch.subjobs_per_op",
}

// TestExactCountsRepeat runs every workload's count window twice with
// one seed and checks the exact counts agree, then checks that another
// seed changes the inputs.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// The smoke runs stop at the window; peak_rss_mb is not checked.
			smoke := *w
			smoke.rssOps = 0
			cfg := config{workload: &smoke, seed: 7, traced: true}
			a, b := testRun(t, cfg), testRun(t, cfg)
			if !a.Correct || !b.Correct {
				t.Fatalf("smoke runs failed: %+v %+v", a, b)
			}
			for _, name := range exactMetrics {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v with the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if a.Metrics["core.tries_per_trial"].Value == 0 || a.Metrics["probe.probes_per_trial"].Value == 0 {
				t.Errorf("trial stations not replayed: %v", a.Metrics)
			}
			same := 0
			for i := 0; i < w.window; i++ {
				if reflect.DeepEqual(w.request(7, i), w.request(8, i)) {
					same++
				}
			}
			if same == w.window {
				t.Errorf("seeds 7 and 8 give the same %d requests", w.window)
			}
		})
	}
}
