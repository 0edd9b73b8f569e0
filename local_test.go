package faultroute_test

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"faultroute"
	"faultroute/api"
)

func estimateRequest(trials int) api.Request {
	return api.Request{Kind: api.KindEstimate, Estimate: &api.EstimateSpec{
		Graph: api.GraphSpec{Family: "hypercube", N: 6},
		P:     0.7, Trials: trials, Seed: 3,
	}}
}

func TestLocalDoMatchesDeprecatedEstimate(t *testing.T) {
	// The wire path and the typed path must agree: Local.Do on a wire
	// spec decodes to the numbers Local.Estimate computes for the
	// equivalent live Spec.
	res, err := faultroute.NewLocal().Do(context.Background(), estimateRequest(10))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := res.Estimate()
	if err != nil {
		t.Fatal(err)
	}

	g, err := faultroute.NewHypercube(6)
	if err != nil {
		t.Fatal(err)
	}
	spec := faultroute.Spec{Graph: g, P: 0.7, Router: faultroute.NewPathFollowRouter()}
	c, err := faultroute.NewLocal(faultroute.WithWorkers(1)).Estimate(context.Background(), spec, 0, g.Antipode(0), 10, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trials != c.Trials || dec.Mean != c.Mean || dec.Median != c.Median || dec.Max != c.Max {
		t.Fatalf("wire and typed paths disagree:\nwire:  %+v\ntyped: %+v", dec, c)
	}
}

func TestLocalWorkerCountInvariance(t *testing.T) {
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		res, err := faultroute.NewLocal(faultroute.WithWorkers(workers)).
			Do(context.Background(), estimateRequest(12))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		bodies = append(bodies, res.Body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("Local results differ across worker counts:\n1: %s\n4: %s", bodies[0], bodies[1])
	}
}

func TestLocalWithCacheServesStoredBytes(t *testing.T) {
	cache := faultroute.NewCache()
	var trialsRun atomic.Int64
	l := faultroute.NewLocal(
		faultroute.WithCache(cache),
		faultroute.WithProgress(func(delta int) { trialsRun.Add(int64(delta)) }),
	)
	first, err := l.Do(context.Background(), estimateRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	ran := trialsRun.Load()
	if ran != 6 {
		t.Fatalf("first run completed %d trials, want 6", ran)
	}
	second, err := l.Do(context.Background(), estimateRequest(6))
	if err != nil {
		t.Fatal(err)
	}
	if trialsRun.Load() != ran {
		t.Fatal("cache hit recomputed trials")
	}
	if !bytes.Equal(first.Body, second.Body) || first.Key != second.Key {
		t.Fatalf("cache hit served different result: %s vs %s", first.Body, second.Body)
	}
}

func TestLocalWatchStreamsEventsInOrder(t *testing.T) {
	var events []api.Event
	res, err := faultroute.NewLocal(faultroute.WithWorkers(4)).
		Watch(context.Background(), estimateRequest(7), func(ev api.Event) {
			events = append(events, ev) // Watch serializes delivery
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Body) == 0 {
		t.Fatal("empty result")
	}
	if len(events) < 3 {
		t.Fatalf("got %d events, want at least running/progress/done", len(events))
	}
	if events[0].State != api.JobRunning || events[0].Done != 0 {
		t.Fatalf("first event = %+v, want running 0/7", events[0])
	}
	last := events[len(events)-1]
	if last.State != api.JobDone || last.Done != 7 || last.Total != 7 {
		t.Fatalf("last event = %+v, want done 7/7", last)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Done < events[i-1].Done {
			t.Fatalf("progress went backwards: %+v -> %+v", events[i-1], events[i])
		}
	}
}

func TestLocalWithScaleFillsExperimentDefault(t *testing.T) {
	// WithScale only fills an EMPTY scale; an explicit one wins.
	l := faultroute.NewLocal(faultroute.WithScale("quick"))
	req := api.Request{Kind: api.KindExperiment, Experiment: &api.ExperimentSpec{ID: "E5", Seed: 1}}
	res, err := l.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	explicit := api.Request{Kind: api.KindExperiment,
		Experiment: &api.ExperimentSpec{ID: "E5", Seed: 1, Scale: "quick"}}
	key, err := api.Key(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Key != key {
		t.Fatalf("WithScale(quick) key %s != explicit quick key %s", res.Key, key)
	}
	if _, err := res.Table(); err != nil {
		t.Fatalf("decoding table: %v", err)
	}
}

func TestLocalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := faultroute.NewLocal().Do(ctx, estimateRequest(50))
	if err == nil {
		t.Fatal("canceled context accepted")
	}
}
