package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestEstimateCtxCanceled(t *testing.T) {
	spec, src, dst := parallelTestSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EstimateRange(ctx, spec, src, dst, 0, 50, 100, 1, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEstimateBatchCtxCanceledAndProgress(t *testing.T) {
	spec, src, dst := parallelTestSpec(t)
	reqs := []Request{
		{Spec: spec, Src: src, Dst: dst, Trials: 6, MaxTries: 100, Seed: 2},
		{Spec: spec, Src: src, Dst: dst, Trials: 6, MaxTries: 100, Seed: 3},
	}
	var done atomic.Int64
	got, err := EstimateBatch(context.Background(), reqs, 4,
		func(delta int) { done.Add(int64(delta)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	if done.Load() != 12 {
		t.Fatalf("progress counted %d trials, want 12 across the batch", done.Load())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EstimateBatch(ctx, reqs, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
