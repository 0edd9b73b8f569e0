package dispatch_test

// Placement through the public surface: a repeated request reaches its
// cached bytes because every sub-job goes back to the backend that owns
// its content address — no probing, no recomputation anywhere.

import (
	"bytes"
	"context"
	"testing"

	"faultroute"
	"faultroute/dispatch"
)

// freshSubmits is a backend's count of submissions that enqueued work.
func freshSubmits(t *testing.T, b *testBackend) float64 {
	t.Helper()
	v, _ := scrapeSeries(t, b.srv.URL, `faultroute_jobs_submitted_total{outcome="fresh"}`)
	return v
}

func TestPoolRepeatReachesOwnersCache(t *testing.T) {
	backends := []*testBackend{newBackend(t, nil), newBackend(t, nil), newBackend(t, nil)}
	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.srv.URL
	}
	// Hedging off: a hedge that wins leaves its primary's job canceled,
	// so the owner would not hold those bytes for the repeat.
	pool := newPool(t, urls, dispatch.WithShardTrials(4), dispatch.WithHedging(false))
	ctx := context.Background()
	req := estimateReq(48)

	want, err := faultroute.NewLocal().Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	first, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, len(backends))
	for i, b := range backends {
		before[i] = freshSubmits(t, b)
	}
	second, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Body, want.Body) || !bytes.Equal(second.Body, want.Body) {
		t.Fatalf("pool bytes differ from local:\nfirst  %s\nsecond %s\nwant   %s", first.Body, second.Body, want.Body)
	}
	for i, b := range backends {
		if delta := freshSubmits(t, b) - before[i]; delta != 0 {
			t.Errorf("backend %d enqueued %v fresh jobs on the repeat, want 0", i, delta)
		}
	}
}
