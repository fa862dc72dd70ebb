package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"fixgo/internal/cluster"
	"fixgo/internal/core"
	"fixgo/internal/gateway"
	"fixgo/internal/wiki"
)

// counters is a point-in-time read of every counter the layers expose
// through their public APIs.
type counters struct {
	gw      gateway.Stats
	gwErr   error
	net     cluster.NetStats
	objects int
	bytes   uint64
	// Worker core-time by state (internal/stats), summed over workers.
	user, system, iowait time.Duration
}

func snap(s *system) counters {
	var c counters
	c.gw, c.gwErr = s.client.Stats(context.Background())
	c.net = s.edge.NetStats()
	for _, n := range s.nodes() {
		c.objects += n.Store().Len()
		c.bytes += n.Store().TotalBytes()
	}
	for _, w := range s.workers {
		u := w.Stats().Usage(0)
		c.user += u.User
		c.system += u.System
		c.iowait += u.IOWait
	}
	return c
}

// timings are the per-layer timing metrics taken from the spans and job
// lifecycles recorded so far: SDK call medians, gateway handler self
// time, and backend eval and native procedure medians.
func timings(t *tracer) map[string]metric {
	byName := map[string][]time.Duration{}
	var httpSum, inHandler time.Duration
	var httpN int
	for _, s := range t.snapshot() {
		byName[s.Name] = append(byName[s.Name], s.dur())
		switch {
		case strings.HasPrefix(s.Name, "http "):
			// Long-polls and stats reads wait rather than work.
			if s.Name == "http GET /v1/jobs/{id}" || s.Name == "http GET /v1/stats" {
				continue
			}
			httpSum += s.dur()
			httpN++
		case strings.HasPrefix(s.Name, "backend."):
			// Uploads always run inside their handler; an eval whose
			// context carries no request span came from the async pool.
			if s.Parent != 0 || strings.HasPrefix(s.Name, "backend.put_") {
				inHandler += s.dur()
			}
		case strings.HasPrefix(s.Name, "proc "):
			byName["proc"] = append(byName["proc"], s.dur())
		}
	}
	p50 := func(d []time.Duration) metric {
		sortDurations(d)
		return metric{ms(percentile(d, 50)), "ms"}
	}
	var handlerSelf float64
	if httpN > 0 {
		handlerSelf = float64(httpSum-inHandler) / float64(httpN) / 1e3
	}
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	return map[string]metric{
		"gateway.submit_ms":       p50(byName["sdk.submit"]),
		"gateway.put_blob_ms":     p50(byName["sdk.put_blob"]),
		"gateway.put_tree_ms":     p50(byName["sdk.put_tree"]),
		"gateway.handler_self_us": {handlerSelf, "us"},
		"jobs.accept_ms":          p50(byName["sdk.submit_async"]),
		"jobs.queue_wait_ms":      p50(t.queueWait),
		"jobs.run_ms":             p50(t.runTime),
		"jobs.notify_ms":          p50(t.notify),
		"cluster.backend_eval_ms": p50(byName["backend.eval"]),
		"runtime.proc_ms":         p50(byName["proc"]),
	}
}

// layerMetrics turns the traced phase's spans, frame counts and counter
// deltas into the per-layer metrics. Timings of layers the workload's
// ops never call read 0 here; the caller fills them from a probe.
func layerMetrics(r *runner, t *tracer, ph phase, a, b counters) map[string]metric {
	ops := float64(ph.attempted)
	perOp := func(v float64) float64 { return v / ops }
	m := timings(t)

	workerJobs := map[string][]interval{}
	workerBusy := map[string][]interval{}
	var procN int
	for _, s := range t.snapshot() {
		switch {
		case s.Name == "worker.job":
			workerJobs[s.Node] = append(workerJobs[s.Node], interval{s.Start, s.End})
		case s.Name == "worker.child":
			workerBusy[s.Node] = append(workerBusy[s.Node], interval{s.Start, s.End})
		case strings.HasPrefix(s.Name, "proc "):
			procN++
			if isWorker(s.Node) {
				workerBusy[s.Node] = append(workerBusy[s.Node], interval{s.Start, s.End})
			}
		}
	}
	// A worker's self time: a job is active there, but neither a native
	// procedure nor a job it delegated onward is running.
	var workerSelf int64
	for node, jobs := range workerJobs {
		j := union(jobs)
		workerSelf += length(j) - overlap(j, union(workerBusy[node]))
	}
	m["runtime.proc_calls_per_op"] = metric{perOp(float64(procN)), "1/op"}
	m["runtime.worker_self_ms"] = metric{perOp(float64(workerSelf) / 1e6), "ms"}

	t.lifeMu.Lock()
	var extra time.Duration
	for _, a := range t.attempt {
		extra += a
	}
	t.lifeMu.Unlock()
	m["jobs.extra_attempts"] = metric{perOp(float64(extra)), "1/op"}

	// Gateway counters, from Client.Stats.
	var hitRatio float64
	if a.gwErr == nil && b.gwErr == nil {
		hits := float64(b.gw.Cache.Hits - a.gw.Cache.Hits)
		looked := hits + float64(b.gw.Cache.Misses-a.gw.Cache.Misses) + float64(b.gw.Cache.Collapsed-a.gw.Cache.Collapsed)
		hitRatio = ratio(hits, looked)
	}
	m["gateway.hit_ratio"] = metric{hitRatio, "ratio"}
	m["gateway.collapsed"] = metric{perOp(float64(b.gw.Cache.Collapsed - a.gw.Cache.Collapsed)), "1/op"}
	m["gateway.evicted"] = metric{perOp(float64(b.gw.Cache.Evicted - a.gw.Cache.Evicted)), "1/op"}
	m["gateway.queued"] = metric{perOp(float64(b.gw.Admission.Queued - a.gw.Admission.Queued)), "1/op"}
	m["gateway.shed"] = metric{perOp(float64(b.gw.Admission.Rejected - a.gw.Admission.Rejected)), "1/op"}

	// Cluster counters of the edge node, and worker core-time.
	m["cluster.delegations_per_op"] = metric{perOp(float64(b.net.JobsDelegated - a.net.JobsDelegated)), "1/op"}
	m["cluster.replaced"] = metric{perOp(float64(b.net.JobsReplaced - a.net.JobsReplaced)), "1/op"}
	m["cluster.local_fallbacks"] = metric{perOp(float64(b.net.JobsLocalFallback - a.net.JobsLocalFallback)), "1/op"}
	busy := (b.user - a.user) + (b.system - a.system)
	wait := b.iowait - a.iowait
	m["cluster.cpu_wait_ratio"] = metric{ratio(float64(wait), float64(busy+wait)), "ratio"}
	var paths float64
	if lat := r.sp.sys.link.Latency; !r.sp.sys.tcp && lat > 0 {
		paths = float64(percentile(ph.lats, 50)) / float64(lat)
	}
	m["cluster.path_latencies"] = metric{paths, "count"}

	// Frames on every cluster link.
	m["transport.bytes_per_op"] = metric{perOp(float64(t.frameBytes.Load())), "B/op"}
	m["transport.frames_per_op"] = metric{perOp(float64(t.frames.Load())), "1/op"}
	m["transport.send_us"] = metric{ratio(float64(t.sendNS.Load())/1e3, float64(t.frames.Load())), "us"}
	m["proto.object_bytes_per_op"] = metric{perOp(float64(t.objectBytes.Load())), "B/op"}
	m["proto.requests_per_op"] = metric{perOp(float64(t.requests.Load())), "1/op"}
	m["proto.jobs_per_op"] = metric{perOp(float64(t.jobs.Load())), "1/op"}
	m["proto.results_per_op"] = metric{perOp(float64(t.results.Load())), "1/op"}

	// Store growth over every node.
	m["store.objects_per_op"] = metric{perOp(float64(b.objects - a.objects)), "1/op"}
	m["store.bytes_per_op"] = metric{perOp(float64(b.bytes) - float64(a.bytes)), "B/op"}
	return m
}

// probeOps is how many ops the API probe sends.
const probeOps = 50

// apiProbe runs after a traced phase, on the same deployment, so that
// every per-layer timing is measured on every workload: each op uploads
// a fresh 16 KiB chunk, runs a count-string invocation over it as an
// async job, and submits a second invocation over the same chunk
// synchronously. Both answers are checked. Probe op i is traced as op
// opBase+i.
func apiProbe(ctx context.Context, s *system, t *tracer, seed int64, opBase int) error {
	rng := rand.New(rand.NewSource(seed + 1))
	needle := []byte(randWord(rng, 6))
	fn, err := s.client.PutBlob(ctx, core.NativeFunctionBlob(wiki.CountProcName))
	if err != nil {
		return err
	}
	ndl, err := s.client.PutBlob(ctx, needle)
	if err != nil {
		return err
	}
	// A second limits Blob makes the sync invocation a distinct thunk.
	lim := core.Limits{MemoryBytes: core.DefaultLimits.MemoryBytes, Gas: core.DefaultLimits.Gas + 1}.Handle()
	for k := 0; k < probeOps; k++ {
		i := opBase + k
		chunk := wiki.Chunk(-(seed*1_000_003 + int64(k) + 1), ingestChunk, string(needle), 797)
		want := wiki.CountNonOverlapping(chunk, needle)
		blob, err := countString(ctx, s, t, i, chunk, core.BlobHandle(chunk), want, fn, ndl)
		if err != nil {
			return fmt.Errorf("probe op %d: %w", i, err)
		}
		var th core.Handle
		if err := t.call(ctx, i, "sdk.put_tree", func(ctx context.Context) (err error) {
			th, err = invocation(ctx, s.client, core.InvocationTree(lim, fn, blob, ndl))
			return err
		}); err != nil {
			return err
		}
		var res gateway.JobResult
		if err := t.call(ctx, i, "sdk.submit", func(ctx context.Context) (err error) {
			res, err = s.client.Submit(ctx, th)
			return err
		}); err != nil {
			return err
		}
		if got, err := literalU64(res.Result); err != nil || got != want {
			return wrong("probe op %d: count %d (%v), want %d", i, got, err, want)
		}
	}
	return nil
}
