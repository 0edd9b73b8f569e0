package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"faultroute/internal/graph"
	"faultroute/internal/route"
)

// shardSpec returns a small estimate spec shared by the shard tests.
func shardSpec(t *testing.T) (Spec, graph.Vertex, graph.Vertex) {
	t.Helper()
	g, err := graph.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Graph: g, P: 0.6, Router: route.NewPathFollow()}
	return spec, 0, g.Antipode(0)
}

func TestEstimateShardCtxCoversFullRange(t *testing.T) {
	// The concatenation of disjoint shard results, merged in trial
	// order, must be bit-identical to the single-range estimate — the
	// property the distributed dispatcher relies on.
	spec, src, dst := shardSpec(t)
	const trials, seed = 24, uint64(7)
	ctx := context.Background()

	want, err := estimate(spec, src, dst, trials, 100, seed, 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, cuts := range [][]int{{0, 24}, {0, 1, 24}, {0, 7, 13, 24}, {0, 23, 24}} {
		var all []TrialResult
		for i := 0; i+1 < len(cuts); i++ {
			part, err := EstimateRange(ctx, spec, src, dst, cuts[i], cuts[i+1]-cuts[i], 100, seed, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, part...)
		}
		got, err := MergeTrials(all)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cuts %v: merged shards %+v != full estimate %+v", cuts, got, want)
		}
	}
}

func TestEstimateShardCtxMatchesTrialByTrial(t *testing.T) {
	// A shard's row i must be EstimateTrial(offset+i): shard position
	// never leaks into a trial's randomness. Progress observes every
	// trial of the range.
	spec, src, dst := shardSpec(t)
	const seed = uint64(11)
	var done atomic.Int64
	rows, err := EstimateRange(context.Background(), spec, src, dst, 5, 4, 100, seed, 2,
		func(delta int) { done.Add(int64(delta)) })
	if err != nil {
		t.Fatal(err)
	}
	if done.Load() != 4 {
		t.Fatalf("progress counted %d trials, want 4", done.Load())
	}
	for i, got := range rows {
		want := EstimateTrial(spec, src, dst, 5+i, 100, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d: %+v != EstimateTrial(%d) %+v", i, got, 5+i, want)
		}
	}
}

func TestEstimateShardCtxRejectsBadRanges(t *testing.T) {
	spec, src, dst := shardSpec(t)
	ctx := context.Background()
	if _, err := EstimateRange(ctx, spec, src, dst, -1, 3, 100, 1, 1, nil); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := EstimateRange(ctx, spec, src, dst, 0, 0, 100, 1, 1, nil); err == nil {
		t.Fatal("zero count accepted")
	}
}
