// Package serve is the embeddable faultrouted service: the job engine,
// the content-addressed result cache and the experiment registry wired
// into the JSON HTTP API documented in SERVING.md.
//
// cmd/faultrouted is a thin flag wrapper around this package; tests and
// programs can mount the same service in-process:
//
//	svc := serve.New(serve.Options{Executors: 2})
//	defer svc.Close()
//	srv := httptest.NewServer(svc.Handler())
//
// Every handler speaks the faultroute/api wire types, so the JSON the
// service caches and serves is byte-identical to what faultroute.Local
// computes in-process and what `routebench -format json` prints.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"faultroute/api"
	"faultroute/internal/cache"
	"faultroute/internal/exp"
	"faultroute/internal/jobs"
)

// Options configures a Service. The zero value selects the daemon
// defaults.
type Options struct {
	// Workers is the default per-job trial parallelism used when a
	// submission does not set its own (<= 0 selects all cores). It never
	// affects result bytes.
	Workers int
	// Executors is the number of jobs executed concurrently (<= 0
	// selects 2).
	Executors int
	// QueueDepth bounds the submission queue; submissions beyond it get
	// 503 (<= 0 selects 64).
	QueueDepth int
	// Store, when non-nil, selects the service's result store — any
	// tier stack from internal/cache: a bounded cache.NewBounded
	// memory tier, a cache.NewTiered memory+disk stack whose disk tier
	// survives restarts, or a pre-warmed store shared with other
	// services. nil selects an unbounded in-memory store. A warm store
	// short-circuits resubmissions across restarts: the engine serves
	// the recovered bytes as cache hits without recomputing.
	Store cache.ResultStore
	// Logger, when non-nil, receives one structured line per API
	// request: method, path, route pattern, status, duration, response
	// size, and the job id/key when the handler resolved one. nil
	// disables request logging (cmd/faultrouted's -log flag sets it).
	Logger *slog.Logger
	// EventInterval is the cadence at which GET /v1/jobs/{id}/events
	// snapshots a running job's progress (<= 0 selects 25ms); terminal
	// transitions are pushed immediately regardless. It never affects
	// result bytes — only how often subscribers hear about progress.
	EventInterval time.Duration
	// TaskDelay, when positive, sleeps every freshly executed task for
	// the given duration before it starts computing (canceled jobs stop
	// sleeping immediately; cache and memo hits never sleep). It exists
	// to emulate a slow or overloaded backend in benchmarks and cluster
	// smoke tests — by the determinism contract a delay can only change
	// timing, never result bytes. cmd/faultrouted wires it to the
	// FAULTROUTE_TASK_DELAY environment variable.
	TaskDelay time.Duration
}

// retryAfterSeconds is the Retry-After hint on queue-full 503s. One
// second is deliberately coarse: the queue drains at job-execution
// granularity, and a finer hint would just synchronize rejected clients
// into retry waves (the client adds its own jitter on top).
const retryAfterSeconds = 1

// Service owns one engine + store pair and serves the HTTP API.
type Service struct {
	engine        *jobs.Engine
	store         cache.ResultStore
	workers       int
	logger        *slog.Logger
	eventInterval time.Duration
	taskDelay     time.Duration
	metrics       *serviceMetrics
	memo          *submitMemo
}

// New starts a service. Close it when done to drain the executors.
func New(opts Options) *Service {
	if opts.Executors <= 0 {
		opts.Executors = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.EventInterval <= 0 {
		opts.EventInterval = 25 * time.Millisecond
	}
	store := opts.Store
	if store == nil {
		store = cache.NewStore()
	}
	s := &Service{
		engine:        jobs.NewEngine(store, opts.Executors, opts.QueueDepth),
		store:         store,
		workers:       opts.Workers,
		logger:        opts.Logger,
		eventInterval: opts.EventInterval,
		taskDelay:     opts.TaskDelay,
		memo:          newSubmitMemo(),
	}
	s.metrics = newServiceMetrics(s)
	return s
}

// Close stops accepting submissions, cancels running jobs and waits for
// the executors to drain.
func (s *Service) Close() { s.engine.Close() }

// Store returns the service's result store (shared, live).
func (s *Service) Store() cache.ResultStore { return s.store }

// Handler returns the API surface:
//
//	POST   /v1/jobs             submit an estimate, experiment or percolation job
//	                            (estimate jobs may carry a shard: a trial-range
//	                            sub-job of a distributed dispatch, see SERVING.md)
//	GET    /v1/jobs/{id}        job state + progress counters
//	GET    /v1/jobs/{id}/events Server-Sent-Events push progress stream
//	DELETE /v1/jobs/{id}        cancel a queued or running job (409 once finished)
//	GET    /v1/results/{key}    canonical result bytes for a content address
//	GET    /v1/experiments      the E1..E21 registry with parameter schemas
//	GET    /v1/healthz          liveness + cache statistics
//	GET    /v1/metrics          Prometheus text-format metrics
//
// Every request passes through the observability middleware: a
// faultroute_http_requests_total sample per request, plus one
// structured log line when Options.Logger is set.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.BasePath+"/jobs", s.handleSubmit)
	mux.HandleFunc("GET "+api.BasePath+"/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET "+api.BasePath+"/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE "+api.BasePath+"/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET "+api.BasePath+"/results/{key}", s.handleResult)
	mux.HandleFunc("GET "+api.BasePath+"/experiments", s.handleExperiments)
	mux.HandleFunc("GET "+api.BasePath+"/healthz", s.handleHealth)
	mux.HandleFunc("GET "+api.BasePath+"/metrics", s.handleMetrics)
	return s.instrument(mux)
}

// writeJSON writes v with the given status; encoding failures turn into
// a 500 before any body byte is written.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b, status = []byte(`{"error":"encoding response"}`), http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeError reports a failure as an api.ErrorBody.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// maxSubmitBytes bounds a submission body. A real request is a spec of
// a few hundred bytes; the bound only stops a client from streaming an
// unbounded body into the daemon's memory. Larger bodies answer 413.
const maxSubmitBytes = 1 << 20

// handleSubmit compiles the submitted request (normalization + content
// address + task) and either coalesces onto existing work or enqueues a
// fresh job. The compiled task is wrapped so every executed job feeds
// the per-kind latency histogram and terminal-state counters.
//
// Duplicate submissions — byte-identical bodies, the shape of a
// popularity-skewed fleet — take the memo fast path: the first
// submission's compile outcome is reused, and once the job is done the
// pre-encoded response is served without decoding the body or taking
// the engine lock at all. See memo.go.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		s.metrics.submitted.With("invalid").Inc()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "job request exceeds %d bytes", maxSubmitBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "reading job request: %v", err)
		return
	}
	ent := s.memo.get(body)
	if ent == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req api.Request
		if err := dec.Decode(&req); err != nil {
			s.metrics.submitted.With("invalid").Inc()
			writeError(w, http.StatusBadRequest, "decoding job request: %v", err)
			return
		}
		if req.Workers <= 0 {
			req.Workers = s.workers
		}
		plan, err := api.Compile(req)
		if err != nil {
			s.metrics.submitted.With("invalid").Inc()
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ent = &memoEntry{key: plan.Key, total: plan.Total, kind: plan.Request.Kind, task: plan.Task}
		s.memo.put(body, ent)
	} else if frozen := ent.resp.Load(); frozen != nil && s.store.Has(ent.key) {
		// The presence probe keeps the frozen fast path honest under a
		// bounded store: once the result's bytes are evicted, the
		// submission must fall through and recompute rather than point
		// the client at a /v1/results fetch that would 404.
		s.metrics.submitted.With("cached").Inc()
		annotate(r, frozen.jobID, ent.key)
		w.Header().Set("Content-Type", "application/json")
		w.Write(frozen.body)
		return
	}
	kind, task := ent.kind, ent.task
	instrumented := func(ctx context.Context, progress func(int)) ([]byte, error) {
		start := time.Now()
		if s.taskDelay > 0 {
			// Emulated slowness (Options.TaskDelay). The select keeps
			// canceled jobs honest: a hedge loser or DELETEd job stops
			// sleeping the moment its context dies.
			select {
			case <-ctx.Done():
				s.metrics.observeJob(kind, start, ctx.Err())
				return nil, ctx.Err()
			case <-time.After(s.taskDelay):
			}
		}
		data, err := task(ctx, progress)
		s.metrics.observeJob(kind, start, err)
		return data, err
	}
	job, fresh, err := s.engine.Submit(ent.key, ent.total, instrumented)
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrClosed):
		s.metrics.submitted.With("rejected").Inc()
		// Backpressure, not failure: tell well-behaved clients when to
		// come back instead of letting their exponential backoff guess.
		// client.Client honors the header (capped by its backoff ceiling).
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	annotate(r, job.ID(), job.Key())
	st := job.Status()
	resp := api.SubmitResponse{
		Job:       st,
		Cached:    !fresh && st.State == jobs.StateDone,
		Coalesced: !fresh && st.State != jobs.StateDone,
		Events:    api.BasePath + "/jobs/" + job.ID() + "/events",
	}
	switch {
	case fresh:
		s.metrics.submitted.With("fresh").Inc()
	case resp.Cached:
		s.metrics.submitted.With("cached").Inc()
	default:
		s.metrics.submitted.With("coalesced").Inc()
	}
	status := http.StatusOK
	if fresh {
		status = http.StatusAccepted
	}
	if resp.Cached {
		// The job is terminal and its status frozen: encode once, freeze
		// the bytes on the memo entry, and serve every later duplicate
		// from them.
		if b, err := json.Marshal(resp); err == nil {
			b = append(b, '\n')
			ent.resp.Store(&memoResp{body: b, jobID: job.ID()})
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(b)
			return
		}
	}
	writeJSON(w, status, resp)
}

// handleJobStatus reports one job's state and progress counters.
func (s *Service) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.engine.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	annotate(r, job.ID(), job.Key())
	writeJSON(w, http.StatusOK, job.Status())
}

// handleJobCancel cancels a queued or running job. A job already in a
// terminal state gets 409: the DELETE changed nothing, and pretending
// otherwise would hide from clients that the result (or failure) stands.
func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.engine.Cancel(id); {
	case errors.Is(err, jobs.ErrFinished):
		writeError(w, http.StatusConflict, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	job, _ := s.engine.Get(id)
	annotate(r, job.ID(), job.Key())
	writeJSON(w, http.StatusOK, job.Status())
}

// handleResult serves the cached result bytes for a content address —
// exactly the canonical encoding the job computed, so the body can be
// byte-compared against local CLI output.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	annotate(r, "", key)
	data, ok := s.store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no result for key %q (job still running, failed, or never submitted)", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleExperiments serves the machine-readable E1..E21 registry.
func (s *Service) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.ExperimentList{Experiments: exp.Infos()})
}

// handleHealth reports liveness plus cache occupancy, with per-tier
// entry/byte/eviction statistics for tiered stores.
func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.store.Stats()
	tiers := s.store.Tiers()
	th := make([]api.TierHealth, len(tiers))
	for i, t := range tiers {
		th[i] = api.TierHealth{
			Tier:      t.Tier,
			Entries:   t.Entries,
			Bytes:     t.Bytes,
			Hits:      t.Hits,
			Misses:    t.Misses,
			Evictions: t.Evictions,
		}
	}
	writeJSON(w, http.StatusOK, api.Health{
		OK:      true,
		Results: s.store.Len(),
		Hits:    hits,
		Misses:  misses,
		Tiers:   th,
	})
}
