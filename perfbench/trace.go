package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"faultroute/api"
)

// span is one recorded interval at a layer boundary. Times are offsets
// from the tracer's start; Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// maxSpans caps the spans kept for export. Per-layer metrics never read
// the kept spans, only the uncapped per-name samples, so the cap bounds
// memory without biasing any metric.
const maxSpans = 200_000

// tracer keeps spans in memory, plus every duration per span name. It is
// safe for concurrent use; a nil *tracer records nothing.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	nextID  int
	spans   []span
	dropped int
	samples map[string][]time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: make(map[string][]time.Duration)}
}

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// record stores a finished span under a reserved ID (0 reserves one).
func (t *tracer) record(id, parent, op int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	t.samples[name] = append(t.samples[name], end.Sub(start))
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// durations returns every recorded duration of a span name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]time.Duration(nil), t.samples[name]...)
}

// layerTime is one span name's total and self time over the kept spans.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes computes per-name self time: a span's duration minus the
// part of its interval covered by its children (overlapping children
// count once).
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.count++
		lt.total += d
		lt.self += d - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// export writes the environment stamp and then every kept span, one
// JSON object per line.
func (t *tracer) export(path string, env map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(map[string]any{"env": env, "spans": len(t.spans), "dropped": t.dropped})
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(t.spans[i])
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// opCtx carries the op a request belongs to down through client and
// dispatch calls, so the transport can attribute its spans.
type opCtx struct{ op, span int }

type opCtxKey struct{}

func withOp(ctx context.Context, op, spanID int) context.Context {
	return context.WithValue(ctx, opCtxKey{}, opCtx{op: op, span: spanID})
}

// Span names of the HTTP boundary, one per route the clients use.
const (
	spanSubmitFresh = "serve.submit_fresh"
	spanSubmitHit   = "serve.submit_hit"
	spanAwait       = "serve.await"
	spanStatus      = "serve.status"
	spanResult      = "serve.result"
	spanPeerProbe   = "dispatch.peer_probe"
	spanQueueWait   = "jobs.queue_wait"
	spanExecute     = "jobs.execute"
	spanOther       = "serve.other"
)

// transport is the tracing http.RoundTripper installed into the load
// clients. Each request becomes a span that ends when the caller closes
// the response body; submit and status responses are also decoded for
// the job timestamps the daemon reports, which become queue-wait and
// execute spans.
type transport struct {
	base http.RoundTripper
	tr   *tracer

	mu       sync.Mutex
	requests int
	retries  int // attempts answered by a transport error or a 503
	fills    int // peer probes answered with a result
	keys     map[string]bool
	jobs     map[string]bool // host + job ID of jobs already timed
}

func newTransport(base http.RoundTripper, tr *tracer) *transport {
	return &transport{base: base, tr: tr, keys: make(map[string]bool), jobs: make(map[string]bool)}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	oc, _ := req.Context().Value(opCtxKey{}).(opCtx)
	resp, err := t.base.RoundTrip(req)
	t.mu.Lock()
	t.requests++
	if err != nil || resp.StatusCode == http.StatusServiceUnavailable {
		t.retries++
	}
	t.mu.Unlock()
	if err != nil {
		t.tr.record(0, oc.span, oc.op, spanOther, start, time.Now())
		return resp, err
	}
	path := req.URL.Path
	switch {
	case req.Method == http.MethodPost && path == api.BasePath+"/jobs":
		name := spanSubmitHit
		if resp.StatusCode == http.StatusAccepted {
			name = spanSubmitFresh
		}
		var sub api.SubmitResponse
		body, rerr := t.decode(resp, &sub)
		t.tr.record(0, oc.span, oc.op, name, start, time.Now())
		if rerr != nil {
			return nil, rerr
		}
		t.mu.Lock()
		t.keys[sub.Job.Key] = true
		t.mu.Unlock()
		t.job(req.URL.Host, sub.Job, oc)
		resp.Body = io.NopCloser(bytes.NewReader(body))
	case req.Method == http.MethodGet && strings.HasPrefix(path, api.BasePath+"/jobs/") && !strings.HasSuffix(path, "/events"):
		var st api.JobStatus
		body, rerr := t.decode(resp, &st)
		t.tr.record(0, oc.span, oc.op, spanStatus, start, time.Now())
		if rerr != nil {
			return nil, rerr
		}
		t.job(req.URL.Host, st, oc)
		resp.Body = io.NopCloser(bytes.NewReader(body))
	default:
		name := spanOther
		switch {
		case strings.HasSuffix(path, "/events"):
			name = spanAwait
		case strings.HasPrefix(path, api.BasePath+"/results/"):
			// A result fetched for a key no submit response has named
			// yet is a dispatch peer probe, not a fetch after a job.
			t.mu.Lock()
			known := t.keys[strings.TrimPrefix(path, api.BasePath+"/results/")]
			if !known && resp.StatusCode == http.StatusOK {
				t.fills++
			}
			t.mu.Unlock()
			name = spanResult
			if !known {
				name = spanPeerProbe
			}
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
			t.tr.record(0, oc.span, oc.op, name, start, time.Now())
		}}
	}
	return resp, nil
}

// decode reads a small JSON response in full and decodes it into out
// when the request succeeded.
func (t *transport) decode(resp *http.Response, out any) ([]byte, error) {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, out); err != nil {
			return nil, fmt.Errorf("trace: decoding %s: %w", resp.Request.URL.Path, err)
		}
	}
	return body, nil
}

// job records the queue-wait and execute spans of a finished job the
// first time any response reports it. The daemon's timestamps share the
// process clock, so they line up with the client-side spans.
func (t *transport) job(host string, st api.JobStatus, oc opCtx) {
	if st.State != api.JobDone || st.Started.IsZero() || st.Finished.IsZero() {
		return
	}
	id := host + "/" + st.ID
	t.mu.Lock()
	seen := t.jobs[id]
	t.jobs[id] = true
	t.mu.Unlock()
	if seen {
		return
	}
	t.tr.record(0, oc.span, oc.op, spanQueueWait, st.Created, st.Started)
	t.tr.record(0, oc.span, oc.op, spanExecute, st.Started, st.Finished)
}

func (t *transport) counts() (requests, retries, fills int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requests, t.retries, t.fills
}

// spanBody ends its span when the caller closes it, so a span covers
// the whole response, streamed bodies included.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
