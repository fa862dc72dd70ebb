package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/gateway"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/storage"
	"fixgo/internal/transport"
)

// The traced run times calls into each layer's public API from this
// package alone: SDK calls in the ops, an HTTP middleware in front of
// the gateway's handler, a Backend wrapper between the gateway and its
// cluster node, a counting transport.Conn on every cluster link, and a
// wrapper around every registered native procedure. The program itself
// is unchanged; the untraced run installs none of these.

// opHeader carries "<op>/<parent span>" from the SDK's HTTP client to the
// gateway middleware, so server-side spans join the op that caused them.
const opHeader = "X-Perfbench-Op"

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: root
	Op     int64  `json:"op"`     // timed op index; -1 when not attributable
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Trace  string `json:"trace,omitempty"` // proto trace ID, frames only
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type spanKey struct{}

// spanRef is the op and span a context belongs to.
type spanRef struct{ op, id int64 }

func refOf(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// Frame counters, summed over every cluster link's sends.
	frames, frameBytes, sendNS           atomic.Int64
	objectBytes, requests, jobs, results atomic.Int64

	// Worker-side job intervals: Job frame in → Result frame out.
	jobMu    sync.Mutex
	jobIn    map[string]int64 // node + handle → receive time
	childOut map[string]int64 // node + handle → delegation send time

	// Async job lifecycle samples (ingest-async).
	lifeMu                              sync.Mutex
	queueWait, runTime, notify, attempt []time.Duration
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		jobIn:    make(map[string]int64),
		childOut: make(map[string]int64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record stores a finished span, giving it an ID if it has none.
func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call times one SDK call of an op as a root span; the span's identity
// rides in ctx to the HTTP client, and from there to the gateway. A nil
// tracer runs f untimed.
func (t *tracer) call(ctx context.Context, op int, name string, f func(context.Context) error) error {
	if t == nil {
		return f(ctx)
	}
	id := t.nextID.Add(1)
	start := t.now()
	err := f(context.WithValue(ctx, spanKey{}, spanRef{op: int64(op), id: id}))
	t.record(span{ID: id, Op: int64(op), Name: name, Start: start, End: t.now()})
	return err
}

// roundTripper stamps each SDK request with the op and span in its
// context.
type roundTripper struct{ next http.RoundTripper }

func (rt roundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := refOf(r.Context()); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatInt(ref.op, 10)+"/"+strconv.FormatInt(ref.id, 10))
	}
	return rt.next.RoundTrip(r)
}

// middleware spans every gateway request and puts the span in the
// request context, which the gateway hands on to its backend calls.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := spanRef{op: -1}
		var parent int64
		if v := r.Header.Get(opHeader); v != "" {
			a, b, _ := strings.Cut(v, "/")
			ref.op, _ = strconv.ParseInt(a, 10, 64)
			parent, _ = strconv.ParseInt(b, 10, 64)
		}
		ref.id = t.nextID.Add(1)
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, ref)))
		t.record(span{ID: ref.id, Parent: parent, Op: ref.op, Name: "http " + route(r), Start: start, End: t.now()})
	})
}

// route names a request by method and path shape.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/jobs/"):
		p = "/v1/jobs/{id}"
	case strings.HasPrefix(p, "/v1/blobs/"):
		p = "/v1/blobs/{handle}"
	}
	if r.URL.Query().Get("mode") == "async" {
		p += "?async"
	}
	return r.Method + " " + p
}

// backend wraps the gateway's cluster node, spanning each Backend call.
// It forwards every optional facet the gateway type-asserts, so the
// traced gateway takes the same code paths as the untraced one.
type backend struct {
	n *cluster.Node
	t *tracer
}

var (
	_ gateway.Backend         = (*backend)(nil)
	_ gateway.BatchEvaler     = (*backend)(nil)
	_ gateway.OwnedBlobPutter = (*backend)(nil)
	_ gateway.JobPayloader    = (*backend)(nil)
	_ gateway.HintResolver    = (*backend)(nil)
)

// spanCtx records a backend span; ctx (when present) names the gateway
// request it ran for.
func (b *backend) spanCtx(ctx context.Context, name string, start int64) {
	s := span{Op: -1, Name: name, Start: start, End: b.t.now()}
	if ref, ok := refOf(ctx); ok {
		s.Op, s.Parent = ref.op, ref.id
	}
	b.t.record(s)
}

func (b *backend) Eval(ctx context.Context, h core.Handle) (core.Handle, error) {
	start := b.t.now()
	res, err := b.n.Eval(ctx, h)
	b.spanCtx(ctx, "backend.eval", start)
	return res, err
}

func (b *backend) EvalBatch(ctx context.Context, hs []core.Handle) ([]core.Handle, []error) {
	start := b.t.now()
	res, errs := b.n.EvalBatch(ctx, hs)
	b.spanCtx(ctx, "backend.eval_batch", start)
	return res, errs
}

func (b *backend) PutBlob(data []byte) core.Handle {
	start := b.t.now()
	h := b.n.PutBlob(data)
	b.spanCtx(context.Background(), "backend.put_blob", start)
	return h
}

func (b *backend) PutBlobOwned(h core.Handle, data []byte) core.Handle {
	start := b.t.now()
	h = b.n.PutBlobOwned(h, data)
	b.spanCtx(context.Background(), "backend.put_blob", start)
	return h
}

func (b *backend) PutTree(entries []core.Handle) (core.Handle, error) {
	start := b.t.now()
	h, err := b.n.PutTree(entries)
	b.spanCtx(context.Background(), "backend.put_tree", start)
	return h, err
}

func (b *backend) ObjectBytes(ctx context.Context, h core.Handle) ([]byte, error) {
	start := b.t.now()
	data, err := b.n.ObjectBytes(ctx, h)
	b.spanCtx(ctx, "backend.object_bytes", start)
	return data, err
}

func (b *backend) JobPayload(h core.Handle) []proto.PushedObject { return b.n.JobPayload(h) }
func (b *backend) AbsorbPayload(objs []proto.PushedObject)       { b.n.AbsorbPayload(objs) }
func (b *backend) ResolvableHint(h core.Handle) bool             { return b.n.ResolvableHint(h) }
func (b *backend) NetStats() cluster.NetStats                    { return b.n.NetStats() }
func (b *backend) StorageStats() *storage.Stats                  { return b.n.StorageStats() }

// conn counts and decodes every frame a node sends on a cluster link,
// and times worker jobs from the Job frame in to the Result frame out.
type conn struct {
	transport.Conn
	t    *tracer
	node string
}

func (t *tracer) wrapConn(node string, c transport.Conn) transport.Conn {
	return &conn{Conn: c, t: t, node: node}
}

func (c *conn) Send(msg []byte) error {
	start := c.t.now()
	err := c.Conn.Send(msg)
	end := c.t.now()
	t := c.t
	t.frames.Add(1)
	t.frameBytes.Add(int64(len(msg)))
	t.sendNS.Add(end - start)
	m, derr := proto.Decode(msg)
	if derr != nil {
		return err
	}
	switch m.Type {
	case proto.TypeObject, proto.TypeReplicate:
		t.objectBytes.Add(int64(len(m.Data)))
	case proto.TypeRequest:
		t.requests.Add(1)
	case proto.TypeJob:
		t.jobs.Add(1)
		for _, p := range m.Pushed {
			t.objectBytes.Add(int64(len(p.Data)))
		}
		if isWorker(c.node) {
			t.jobMark(t.childOut, c.node, m.Handle, start)
		}
	case proto.TypeResult:
		t.results.Add(1)
		if isWorker(c.node) {
			if in, ok := t.jobTake(t.jobIn, c.node, m.Handle); ok {
				t.record(span{Op: -1, Name: "worker.job", Node: c.node, Start: in, End: end})
			}
		}
	}
	if m.Trace != "" {
		t.record(span{Op: -1, Name: fmt.Sprintf("frame.%d", m.Type), Node: c.node, Trace: m.Trace, Start: start, End: end})
	}
	return err
}

func (c *conn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil || !isWorker(c.node) {
		return msg, err
	}
	if m, derr := proto.Decode(msg); derr == nil {
		now := c.t.now()
		switch m.Type {
		case proto.TypeJob:
			c.t.jobMark(c.t.jobIn, c.node, m.Handle, now)
		case proto.TypeResult:
			if out, ok := c.t.jobTake(c.t.childOut, c.node, m.Handle); ok {
				c.t.record(span{Op: -1, Name: "worker.child", Node: c.node, Start: out, End: now})
			}
		}
	}
	return msg, err
}

func isWorker(node string) bool { return strings.HasPrefix(node, "w") }

func (t *tracer) jobMark(m map[string]int64, node string, h core.Handle, at int64) {
	t.jobMu.Lock()
	m[node+string(h[:])] = at
	t.jobMu.Unlock()
}

func (t *tracer) jobTake(m map[string]int64, node string, h core.Handle) (int64, bool) {
	t.jobMu.Lock()
	defer t.jobMu.Unlock()
	at, ok := m[node+string(h[:])]
	delete(m, node+string(h[:]))
	return at, ok
}

// wrapRegistry times every native procedure registered in reg as it
// runs on node.
func (t *tracer) wrapRegistry(reg *runtime.Registry, node string) {
	for _, name := range reg.Names() {
		p, err := reg.Lookup(name)
		if err != nil {
			continue
		}
		reg.Register(name, core.ProcedureFunc(func(api core.API, in core.Handle) (core.Handle, error) {
			start := t.now()
			out, err := p.Apply(api, in)
			t.record(span{Op: -1, Name: "proc " + name, Node: node, Start: start, End: t.now()})
			return out, err
		}))
	}
}

// jobLifecycle records one async job's server-side timestamps and the
// time its AwaitJob returned.
func (t *tracer) jobLifecycle(js gateway.JobStatus, returned time.Time) {
	if t == nil || js.Started.IsZero() || js.Finished.IsZero() {
		return
	}
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	t.queueWait = append(t.queueWait, js.Started.Sub(js.Enqueued))
	t.runTime = append(t.runTime, js.Finished.Sub(js.Started))
	t.notify = append(t.notify, returned.Sub(js.Finished))
	t.attempt = append(t.attempt, time.Duration(js.Attempts-1))
}

// reset drops everything recorded so far (set-up and warm-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	for _, c := range []*atomic.Int64{&t.frames, &t.frameBytes, &t.sendNS, &t.objectBytes, &t.requests, &t.jobs, &t.results} {
		c.Store(0)
	}
	t.lifeMu.Lock()
	t.queueWait, t.runTime, t.notify, t.attempt = nil, nil, nil, nil
	t.lifeMu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [start, end) in tracer nanoseconds.
type interval struct{ start, end int64 }

// union merges overlapping intervals.
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var out []interval
	for _, x := range iv {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			if x.end > out[n-1].end {
				out[n-1].end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// length is the total length of disjoint intervals.
func length(iv []interval) int64 {
	var n int64
	for _, x := range iv {
		n += x.end - x.start
	}
	return n
}

// overlap is the length of the intersection of two disjoint, sorted
// interval sets.
func overlap(a, b []interval) int64 {
	var n int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].start, b[j].start), min(a[i].end, b[j].end)
		if hi > lo {
			n += hi - lo
		}
		if a[i].end < b[j].end {
			i++
		} else {
			j++
		}
	}
	return n
}
