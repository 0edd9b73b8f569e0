package faultroute

import (
	"context"
	"sync"

	"faultroute/api"
	"faultroute/internal/cache"
	"faultroute/internal/core"
)

// Local is the in-process implementation of api.Runner: it compiles
// api.Requests and executes them directly on the measurement engine,
// producing the same canonical bytes — byte-identical — that the
// faultrouted daemon caches and the remote client fetches. Construct
// with NewLocal; the zero value runs with all defaults.
//
// A Local is immutable after construction and safe for concurrent use.
type Local struct {
	workers  int
	progress Progress
	scale    string
	cache    *Cache
}

// LocalOption configures a Local.
type LocalOption func(*Local)

// WithWorkers sets the default trial-level parallelism for requests
// that do not carry their own Workers hint (<= 0 selects all cores).
// Results are bit-identical for every value.
func WithWorkers(n int) LocalOption { return func(l *Local) { l.workers = n } }

// WithProgress installs a default progress hook: it observes the number
// of newly completed trials as every Do call advances. The hook must be
// safe for concurrent calls and never affects results.
func WithProgress(p Progress) LocalOption { return func(l *Local) { l.progress = p } }

// WithScale sets the default scale ("quick" or "full") for experiment
// requests that leave Scale empty, overriding the wire default of
// "quick". The scale IS part of a request's identity — unlike workers,
// it changes which table is computed.
func WithScale(scale string) LocalOption { return func(l *Local) { l.scale = scale } }

// WithCache attaches a content-addressed result cache: Do returns
// stored bytes for a request whose key is present and stores fresh
// results, exactly like the faultrouted daemon's store. Because keys
// are content addresses of deterministic computations, a hit IS the
// answer. The same *Cache may back several Locals and a serve.Service.
func WithCache(c *Cache) LocalOption { return func(l *Local) { l.cache = c } }

// Cache is the content-addressed result store of the serving layer,
// reusable in-process through WithCache.
type Cache = cache.Store

// NewCache returns an empty result cache.
func NewCache() *Cache { return cache.NewStore() }

// NewLocal returns an in-process Runner with the given options.
func NewLocal(opts ...LocalOption) *Local {
	l := &Local{}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Compile-time check: Local and the remote client are interchangeable.
var _ api.Runner = (*Local)(nil)

// Do executes the request and returns its canonical result. The
// returned Body is byte-identical to what a faultrouted daemon would
// cache for the same request and to `routebench -format json` output
// for experiment requests.
func (l *Local) Do(ctx context.Context, req api.Request) (api.Result, error) {
	return l.run(ctx, req, nil)
}

// Watch is Do with progress events: onEvent observes a running event
// stream (one event per completed work unit, plus a leading running
// event and a trailing done event; on a WithCache hit the stream is
// just that leading/trailing pair, with Done jumping straight to Total
// — 0 when the request's size is unknown, as for experiments). Events
// are delivered sequentially with monotonically non-decreasing Done
// counts, but possibly from worker goroutines; onEvent must not block
// for long.
func (l *Local) Watch(ctx context.Context, req api.Request, onEvent func(api.Event)) (api.Result, error) {
	return l.run(ctx, req, onEvent)
}

func (l *Local) run(ctx context.Context, req api.Request, onEvent func(api.Event)) (api.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Workers == 0 {
		req.Workers = l.workers
	}
	if l.scale != "" && req.Kind == api.KindExperiment && req.Experiment != nil && req.Experiment.Scale == "" {
		spec := *req.Experiment
		spec.Scale = l.scale
		req.Experiment = &spec
	}
	plan, err := api.Compile(req)
	if err != nil {
		return api.Result{}, err
	}
	// evMu serializes event delivery AND guards the done counter: the
	// count must advance and be emitted under one critical section, or
	// two worker hooks could emit their counts out of order and the
	// stream would go backwards.
	var (
		evMu sync.Mutex
		done int64
	)
	emit := func(ev api.Event) {
		if onEvent == nil {
			return
		}
		evMu.Lock()
		defer evMu.Unlock()
		onEvent(ev)
	}
	if l.cache != nil {
		if body, ok := l.cache.Get(plan.Key); ok {
			// Keep the documented leading-running / trailing-done shape
			// even when nothing runs, so consumers keyed on the
			// running->done transition behave the same on hits.
			emit(api.Event{State: api.JobRunning, Done: 0, Total: plan.Total})
			emit(api.Event{State: api.JobDone, Done: plan.Total, Total: plan.Total})
			return api.Result{Kind: plan.Request.Kind, Key: plan.Key, Body: body}, nil
		}
	}
	hook := func(delta int) {
		if l.progress != nil {
			l.progress(delta)
		}
		if onEvent != nil {
			evMu.Lock()
			done += int64(delta)
			onEvent(api.Event{State: api.JobRunning, Done: done, Total: plan.Total})
			evMu.Unlock()
		}
	}
	emit(api.Event{State: api.JobRunning, Done: 0, Total: plan.Total})
	body, err := plan.Task(ctx, hook)
	if err != nil {
		return api.Result{}, err
	}
	if l.cache != nil {
		l.cache.Put(plan.Key, body)
	}
	// Task has returned, so every hook call happens-before this read.
	emit(api.Event{State: api.JobDone, Done: done, Total: plan.Total})
	return api.Result{Kind: plan.Request.Kind, Key: plan.Key, Body: body}, nil
}

// Estimate measures the routing-complexity distribution of a live Spec
// (a constructed Graph and Router, not a wire spec) under the Local's
// workers and progress configuration — the typed fast path. A
// completed run is bit-identical for every worker count.
func (l *Local) Estimate(ctx context.Context, spec Spec, src, dst Vertex, trials, maxTries int, seed uint64) (Complexity, error) {
	return core.EstimateCtx(ctx, spec, src, dst, trials, maxTries, seed, l.workers, l.progress)
}

// EstimateBatch runs many estimates through one shared worker pool, so
// the pool stays saturated even when each request has few trials.
// Results arrive in request order, bit-identical to estimating each
// request separately.
func (l *Local) EstimateBatch(ctx context.Context, reqs []EstimateRequest) ([]Complexity, error) {
	return core.EstimateBatchCtx(ctx, reqs, l.workers, l.progress)
}
