package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/gateway"
	"fixgo/internal/jobs"
	"fixgo/internal/transport"
	"fixgo/internal/wiki"
)

// workload is one traffic mix. generate makes every input from the seed
// before anything is timed; setup boots a fresh deployment, places and
// uploads data, and warms it up; op runs and checks one timed op.
type workload interface {
	// generate makes the inputs of n timed ops.
	generate(seed int64, n int)
	setup(ctx context.Context, s *system, t *tracer) error
	op(ctx context.Context, s *system, t *tracer, i int) error
	// release drops the generated inputs, so the live heap measured
	// after the timed phase holds the system's state only.
	release()
}

// placer is a workload that stores data on worker i before any link
// exists.
type placer interface {
	place(i int, n *cluster.Node)
}

// spec is a workload's fixed shape.
type spec struct {
	name string
	// perSecond ops make one --seconds second of the timed phase: the op
	// count is fixed by the seed and --seconds, never by the clock. They
	// are also one round: the timed ops run as consecutive rounds, each
	// timed on its own, and timings are the median over rounds, so a
	// burst of interference from outside the benchmark moves one round,
	// not the result.
	perSecond int
	// rate is the open-loop arrival rate in ops/s; 0 means closed loop.
	rate     float64
	clients  int
	deadline time.Duration
	sys      sysConfig
	links    string
	make     func() workload
}

// mapLink is mapreduce's modeled link: every edge↔worker and
// worker↔worker link has this one-way latency and bandwidth.
var mapLink = transport.LinkConfig{Latency: 2 * time.Millisecond, Bandwidth: 16e6}

func specs() []spec {
	tcp := "loopback TCP (transport.Listen/Dial); SDK↔gateway over loopback HTTP"
	return []spec{
		{
			name: "serve-zipf", perSecond: zipfRate, rate: zipfRate, clients: clients, deadline: 2 * time.Second,
			sys: sysConfig{workers: 2, tcp: true}, links: tcp,
			make: func() workload { return &serveZipf{} },
		},
		{
			name: "recursive", perSecond: 300, clients: clients, deadline: 5 * time.Second,
			sys: sysConfig{workers: 1, tcp: true}, links: tcp,
			make: func() workload { return &recursive{} },
		},
		{
			name: "ingest-async", perSecond: 500, clients: 1, deadline: 5 * time.Second,
			sys: sysConfig{workers: 2, tcp: true, durable: true}, links: tcp,
			make: func() workload { return &ingest{} },
		},
		{
			name: "mapreduce", perSecond: 40, clients: 1, deadline: 10 * time.Second,
			sys: sysConfig{workers: 4, link: mapLink, meshWorkers: true},
			links: fmt.Sprintf("simulated (transport.Pipe): %v one-way, %.0f MB/s, edge↔workers and worker mesh; SDK↔gateway over loopback HTTP",
				mapLink.Latency, mapLink.Bandwidth/1e6),
			make: func() workload { return &mapReduce{} },
		},
	}
}

// runAll runs ops 0..n-1 through a closed loop, as set-up uploads and
// warm-ups do, and fails on any failed op.
func runAll(ctx context.Context, what string, n, clients int, deadline time.Duration, op opFunc) error {
	o := summarize(closedLoop(ctx, n, clients, deadline, op))
	if o.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed: %v", what, o.failed, o.attempted, o.firstErr)
	}
	return nil
}

// literalU64 decodes a literal integer result handle.
func literalU64(h core.Handle) (uint64, error) {
	if !h.IsLiteral() || h.Kind() != core.KindBlob {
		return 0, fmt.Errorf("result %v is not a literal blob", h)
	}
	return core.DecodeU64(h.LiteralData())
}

// invocation uploads an invocation Tree through the SDK and returns its
// Application Thunk.
func invocation(ctx context.Context, c *gateway.Client, entries []core.Handle) (core.Handle, error) {
	tree, err := c.PutTree(ctx, entries)
	if err != nil {
		return core.Handle{}, err
	}
	return core.Application(tree)
}

// serveZipf: open-loop SubmitFetch of small FixVM add thunks drawn
// Zipfian from a pre-uploaded universe 4× the gateway's result cache.
type serveZipf struct {
	a, b     []uint64        // universe operands
	thunks   []core.Handle   // universe, uploaded at set-up
	draws    []int           // timed ops → universe index
	warm     []int           // warm-up draws
	arrivals []time.Duration // timed ops' send offsets
}

const (
	zipfUniverse = 4 * 4096
	zipfS        = 1.1
	zipfWarm     = 8192
	zipfRate     = 1500 // ops/s
)

func (w *serveZipf) generate(seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	w.a = make([]uint64, zipfUniverse)
	w.b = make([]uint64, zipfUniverse)
	for i := range w.a {
		w.a[i], w.b[i] = rng.Uint64()>>24, rng.Uint64()>>24
	}
	// Ranks map to a seeded permutation, so hot thunks spread over the
	// cache shards.
	perm := rng.Perm(zipfUniverse)
	z := rand.NewZipf(rng, zipfS, 1, zipfUniverse-1)
	w.warm = make([]int, zipfWarm)
	for i := range w.warm {
		w.warm[i] = perm[z.Uint64()]
	}
	w.draws = make([]int, n)
	for i := range w.draws {
		w.draws[i] = perm[z.Uint64()]
	}
	// Poisson arrivals at the workload's rate.
	w.arrivals = make([]time.Duration, n)
	var at float64
	for i := range w.arrivals {
		at += rng.ExpFloat64() / zipfRate
		w.arrivals[i] = time.Duration(at * float64(time.Second))
	}
}

func (w *serveZipf) setup(ctx context.Context, s *system, t *tracer) error {
	fn, err := s.client.PutBlob(ctx, codelet.AddFunctionBlob())
	if err != nil {
		return err
	}
	lim := core.DefaultLimits.Handle()
	w.thunks = make([]core.Handle, zipfUniverse)
	if err := runAll(ctx, "upload universe", zipfUniverse, clients, 5*time.Second, func(ctx context.Context, i int) (err error) {
		w.thunks[i], err = invocation(ctx, s.client, core.InvocationTree(lim, fn, core.LiteralU64(w.a[i]), core.LiteralU64(w.b[i])))
		return err
	}); err != nil {
		return err
	}
	return runAll(ctx, "warm-up", len(w.warm), clients, 2*time.Second, func(ctx context.Context, i int) error {
		return w.submit(ctx, s, nil, -1, w.warm[i])
	})
}

func (w *serveZipf) op(ctx context.Context, s *system, t *tracer, i int) error {
	return w.submit(ctx, s, t, i, w.draws[i])
}

func (w *serveZipf) submit(ctx context.Context, s *system, t *tracer, op, u int) error {
	var res gateway.JobResult
	if err := t.call(ctx, op, "sdk.submit", func(ctx context.Context) (err error) {
		res, err = s.client.SubmitFetch(ctx, w.thunks[u])
		return err
	}); err != nil {
		return err
	}
	got, err := literalU64(res.Result)
	if err != nil {
		return wrong("%v", err)
	}
	if len(res.Data) > 0 && !bytes.Equal(res.Data, res.Result.LiteralData()) {
		return wrong("inline data disagrees with the result handle")
	}
	if want := w.a[u] + w.b[u]; got != want {
		return wrong("add: got %d, want %d", got, want)
	}
	return nil
}

func (w *serveZipf) release() { w.a, w.b, w.draws, w.warm, w.arrivals = nil, nil, nil, nil, nil }

// recursive: closed-loop fib(n), each op with a distinct limits Blob so
// the whole ~2n-thunk graph is cold, on one worker.
type recursive struct {
	gas    []uint64 // timed ops then warm-up ops; distinct per op
	n      int      // timed op count
	thunks []core.Handle
}

const (
	fibN    = 50
	fibWarm = 40
)

// fibRef is the Go reference answer.
func fibRef(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func (w *recursive) generate(seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	w.n = n
	seen := make(map[uint64]bool, n+fibWarm)
	for len(w.gas) < n+fibWarm {
		g := 1<<30 + rng.Uint64()>>34
		if !seen[g] {
			seen[g] = true
			w.gas = append(w.gas, g)
		}
	}
}

func (w *recursive) setup(ctx context.Context, s *system, t *tracer) error {
	fib, err := s.client.PutBlob(ctx, codelet.FibFunctionBlob())
	if err != nil {
		return err
	}
	add, err := s.client.PutBlob(ctx, codelet.AddFunctionBlob())
	if err != nil {
		return err
	}
	w.thunks = make([]core.Handle, len(w.gas))
	if err := runAll(ctx, "upload invocations", len(w.gas), clients, 5*time.Second, func(ctx context.Context, i int) (err error) {
		lim := core.Limits{MemoryBytes: core.DefaultLimits.MemoryBytes, Gas: w.gas[i]}.Handle()
		w.thunks[i], err = invocation(ctx, s.client, core.InvocationTree(lim, fib, add, core.LiteralU64(fibN)))
		return err
	}); err != nil {
		return err
	}
	return runAll(ctx, "warm-up", fibWarm, clients, 5*time.Second, func(ctx context.Context, i int) error {
		return w.submit(ctx, s, nil, -1, w.n+i)
	})
}

func (w *recursive) op(ctx context.Context, s *system, t *tracer, i int) error {
	return w.submit(ctx, s, t, i, i)
}

func (w *recursive) submit(ctx context.Context, s *system, t *tracer, op, k int) error {
	var res gateway.JobResult
	if err := t.call(ctx, op, "sdk.submit", func(ctx context.Context) (err error) {
		res, err = s.client.Submit(ctx, w.thunks[k])
		return err
	}); err != nil {
		return err
	}
	got, err := literalU64(res.Result)
	if err != nil {
		return wrong("%v", err)
	}
	if want := fibRef(fibN); got != want {
		return wrong("fib(%d): got %d, want %d", fibN, got, want)
	}
	return nil
}

func (w *recursive) release() { w.gas = nil }

// ingest: closed-loop PutBlob of a fresh 16 KiB chunk, PutTree of a
// count-string invocation over it, SubmitAsync, AwaitJob.
type ingest struct {
	chunks  [][]byte // timed ops then warm-up ops
	handles []core.Handle
	want    []uint64
	n       int
	needle  []byte
	fn, ndl core.Handle
}

const (
	ingestChunk = 16 << 10
	ingestWarm  = 200
)

func (w *ingest) generate(seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	w.n = n
	w.needle = []byte(randWord(rng, 6))
	w.chunks = make([][]byte, n+ingestWarm)
	w.handles = make([]core.Handle, len(w.chunks))
	w.want = make([]uint64, len(w.chunks))
	for i := range w.chunks {
		w.chunks[i] = wiki.Chunk(seed*1_000_003+int64(i), ingestChunk, string(w.needle), 797)
		w.handles[i] = core.BlobHandle(w.chunks[i])
		w.want[i] = wiki.CountNonOverlapping(w.chunks[i], w.needle)
	}
}

func (w *ingest) setup(ctx context.Context, s *system, t *tracer) (err error) {
	if w.fn, err = s.client.PutBlob(ctx, core.NativeFunctionBlob(wiki.CountProcName)); err != nil {
		return err
	}
	if w.ndl, err = s.client.PutBlob(ctx, w.needle); err != nil {
		return err
	}
	return runAll(ctx, "warm-up", ingestWarm, clients, 5*time.Second, func(ctx context.Context, i int) error {
		return w.ingest(ctx, s, nil, -1, w.n+i)
	})
}

func (w *ingest) op(ctx context.Context, s *system, t *tracer, i int) error {
	return w.ingest(ctx, s, t, i, i)
}

func (w *ingest) ingest(ctx context.Context, s *system, t *tracer, op, k int) error {
	_, err := countString(ctx, s, t, op, w.chunks[k], w.handles[k], w.want[k], w.fn, w.ndl)
	return err
}

// countString uploads chunk, uploads a count-string invocation over it
// and the needle ndl, runs the invocation as an async job, and checks
// the chunk's handle and the count. It returns the chunk's handle.
func countString(ctx context.Context, s *system, t *tracer, op int, chunk []byte, wantBlob core.Handle, want uint64, fn, ndl core.Handle) (core.Handle, error) {
	var blob, thunk core.Handle
	if err := t.call(ctx, op, "sdk.put_blob", func(ctx context.Context) (err error) {
		blob, err = s.client.PutBlob(ctx, chunk)
		return err
	}); err != nil {
		return blob, err
	}
	if blob != wantBlob {
		return blob, wrong("chunk handle %v, want %v", blob, wantBlob)
	}
	if err := t.call(ctx, op, "sdk.put_tree", func(ctx context.Context) (err error) {
		thunk, err = invocation(ctx, s.client, core.InvocationTree(core.DefaultLimits.Handle(), fn, blob, ndl))
		return err
	}); err != nil {
		return blob, err
	}
	var js gateway.JobStatus
	if err := t.call(ctx, op, "sdk.submit_async", func(ctx context.Context) (err error) {
		js, err = s.client.SubmitAsync(ctx, thunk)
		return err
	}); err != nil {
		return blob, err
	}
	if err := t.call(ctx, op, "sdk.await_job", func(ctx context.Context) (err error) {
		js, err = s.client.AwaitJob(ctx, js.ID)
		return err
	}); err != nil {
		return blob, err
	}
	t.jobLifecycle(js, time.Now())
	if js.State != jobs.StateDone {
		return blob, fmt.Errorf("job %s ended %s: %s", js.ID, js.State, js.Err)
	}
	got, err := literalU64(js.Result)
	if err != nil {
		return blob, wrong("%v", err)
	}
	if got != want {
		return blob, wrong("count-string: got %d, want %d", got, want)
	}
	return blob, nil
}

func (w *ingest) release() { w.chunks, w.handles, w.want = nil, nil, nil }

// mapReduce: sequential wiki.BuildJob jobs over 32 × 64 KiB chunks
// pre-placed round-robin on 4 workers, each job with a fresh needle.
type mapReduce struct {
	chunks  [][]byte
	handles []core.Handle
	needles []string // timed jobs then warm-up jobs
	want    []uint64
	n       int
	jobs    []core.Handle
}

const (
	mapChunks     = 32
	mapChunkBytes = 64 << 10
	mapWarm       = 3
)

func (w *mapReduce) generate(seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	w.n = n
	w.chunks = make([][]byte, mapChunks)
	w.handles = make([]core.Handle, mapChunks)
	for i := range w.chunks {
		w.chunks[i] = wiki.Chunk(seed*7919+int64(i), mapChunkBytes, "", 0)
		w.handles[i] = core.BlobHandle(w.chunks[i])
	}
	seen := make(map[string]bool)
	for len(w.needles) < n+mapWarm {
		nd := randWord(rng, 3)
		if seen[nd] {
			continue
		}
		seen[nd] = true
		w.needles = append(w.needles, nd)
		var sum uint64
		for _, c := range w.chunks {
			sum += wiki.CountNonOverlapping(c, []byte(nd))
		}
		w.want = append(w.want, sum)
	}
}

// place stores chunks i, i+4, … on worker i: round-robin over 4 workers.
func (w *mapReduce) place(i int, n *cluster.Node) {
	for c := i; c < len(w.chunks); c += 4 {
		n.Store().PutBlob(w.chunks[c])
	}
}

func (w *mapReduce) setup(ctx context.Context, s *system, t *tracer) error {
	w.jobs = make([]core.Handle, len(w.needles))
	if err := runAll(ctx, "upload jobs", len(w.needles), clients, 10*time.Second, func(ctx context.Context, i int) error {
		st := &sdkStore{ctx: ctx, c: s.client}
		job, err := wiki.BuildJob(st, w.needles[i], w.handles)
		if err == nil {
			err = st.err
		}
		w.jobs[i] = job
		return err
	}); err != nil {
		return err
	}
	return runAll(ctx, "warm-up", mapWarm, 1, 10*time.Second, func(ctx context.Context, i int) error {
		return w.submit(ctx, s, nil, -1, w.n+i)
	})
}

func (w *mapReduce) op(ctx context.Context, s *system, t *tracer, i int) error {
	return w.submit(ctx, s, t, i, i)
}

func (w *mapReduce) submit(ctx context.Context, s *system, t *tracer, op, k int) error {
	var res gateway.JobResult
	if err := t.call(ctx, op, "sdk.submit", func(ctx context.Context) (err error) {
		res, err = s.client.Submit(ctx, w.jobs[k])
		return err
	}); err != nil {
		return err
	}
	got, err := literalU64(res.Result)
	if err != nil {
		return wrong("%v", err)
	}
	if got != w.want[k] {
		return wrong("needle %q: got %d, want %d", w.needles[k], got, w.want[k])
	}
	return nil
}

func (w *mapReduce) release() { w.chunks, w.needles, w.want = nil, nil, nil }

// sdkStore uploads what wiki.BuildJob stores through the gateway SDK.
// Only the write half of core.Store is used; the first upload error is
// kept in err.
type sdkStore struct {
	ctx context.Context
	c   *gateway.Client
	err error
}

func (s *sdkStore) PutBlob(data []byte) core.Handle {
	h, err := s.c.PutBlob(s.ctx, data)
	if err != nil && s.err == nil {
		s.err = err
	}
	return h
}

func (s *sdkStore) PutTree(entries []core.Handle) (core.Handle, error) {
	return s.c.PutTree(s.ctx, entries)
}

var errWriteOnly = errors.New("sdkStore is write-only")

func (s *sdkStore) Blob(core.Handle) ([]byte, error)        { return nil, errWriteOnly }
func (s *sdkStore) Tree(core.Handle) ([]core.Handle, error) { return nil, errWriteOnly }
func (s *sdkStore) Contains(core.Handle) bool               { return false }

// randWord draws n lowercase letters.
func randWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}
