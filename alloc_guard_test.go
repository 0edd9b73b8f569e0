//go:build !race

// Allocation-ceiling guards for the trial hot path. PR 4 replaced the
// per-trial map churn (probe memos, parent tables, reached sets,
// conditioning scratch) with pooled, epoch-stamped arena structures,
// cutting the E1 workload from 162 to ~29 allocs/op and E3 from 425 to
// ~99 (see BENCH_pr4.json). These tests pin a ceiling between the two
// regimes so map churn cannot silently return: they fail long before a
// regression to per-trial maps, while leaving headroom over today's
// steady state for GC-timing noise (sync.Pool contents are released at
// GC). Excluded under -race, which changes allocation behavior.

package faultroute_test

import (
	"context"
	"math"
	"testing"

	"faultroute"
)

// allocsPerEstimate measures steady-state allocations of one
// single-trial Estimate of the given spec, averaged over runs after a
// pool warm-up.
func allocsPerEstimate(t *testing.T, spec faultroute.Spec, src, dst faultroute.Vertex) float64 {
	t.Helper()
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := faultroute.NewLocal(faultroute.WithWorkers(1)).Estimate(context.Background(), spec, src, dst, 1, 400, seed); err != nil &&
			err != faultroute.ErrConditioning {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		run() // warm the arena pool
	}
	return testing.AllocsPerRun(30, run)
}

func TestAllocCeilingE1HypercubePhase(t *testing.T) {
	g, err := faultroute.NewHypercube(10)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{
		Graph:  g,
		P:      math.Pow(10, -0.55),
		Router: faultroute.NewPathFollowRouter(),
		Mode:   faultroute.ModeLocal,
	}
	// Seed-era baseline: 162 allocs/op. Arena engine: ~29.
	const ceiling = 80
	if got := allocsPerEstimate(t, spec, 0, g.Antipode(0)); got > ceiling {
		t.Fatalf("E1 trial allocates %.1f/op, ceiling %d — map churn is back?", got, ceiling)
	}
}

func TestAllocCeilingE3MeshLinear(t *testing.T) {
	g, err := faultroute.NewMesh(2, 60)
	if err != nil {
		t.Fatal(err)
	}
	u, err := g.VertexAt(10, 30)
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.VertexAt(50, 30)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{
		Graph:  g,
		P:      0.6,
		Router: faultroute.NewPathFollowRouter(),
		Mode:   faultroute.ModeLocal,
	}
	// Seed-era baseline: 425 allocs/op. Arena engine: ~99.
	const ceiling = 220
	if got := allocsPerEstimate(t, spec, u, v); got > ceiling {
		t.Fatalf("E3 trial allocates %.1f/op, ceiling %d — map churn is back?", got, ceiling)
	}
}
