package main

import (
	"context"
	"math/rand"
	goruntime "runtime"
	"time"

	"fixgo/internal/codelet"
	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/store"
	"fixgo/internal/wiki"
)

// probes times single layers in isolation, on inputs made by the same
// generators the workloads use. Each probe reports ns (or µs) per call
// and allocations per call.
func probes(seed int64) map[string]metric {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	lim := core.DefaultLimits.Handle()
	addFn := core.BlobHandle(codelet.AddFunctionBlob())
	addTree := func(i int) []core.Handle {
		return core.InvocationTree(lim, addFn, core.LiteralU64(uint64(i)), core.LiteralU64(rng.Uint64()>>24))
	}
	m := map[string]metric{}
	put := func(name, unit string, scale float64, ns, allocs float64) {
		m[name] = metric{ns / scale, unit}
		m[name[:len(name)-len(unit)]+"allocs"] = metric{allocs, "allocs/op"}
	}

	trees := make([][]core.Handle, 1024)
	for i := range trees {
		trees[i] = addTree(i)
	}
	ns, allocs := measure(20000, func(i int) { core.TreeHandle(trees[i%len(trees)]) })
	put("core.tree_handle_ns", "ns", 1, ns, allocs)

	chunk := wiki.Chunk(seed, ingestChunk, randWord(rng, 6), 797)
	ns, allocs = measure(200, func(int) { core.BlobHandle(chunk) })
	m["core.blob_hash_ns_per_kib"] = metric{ns / (ingestChunk >> 10), "ns/KiB"}
	m["core.blob_hash_allocs"] = metric{allocs, "allocs/op"}

	st := store.New()
	ns, allocs = measure(5000, func(i int) { _, _ = st.PutTree(addTree(i)) })
	put("store.put_tree_ns", "ns", 1, ns, allocs)

	// Invocations on a bare engine: each thunk is distinct, so every
	// call is a cold apply (no memo hit).
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	eng := runtime.New(store.New(), runtime.Options{Registry: reg})
	mergeFn := eng.Store().PutBlob(core.NativeFunctionBlob(wiki.MergeProcName))
	vmFn := eng.Store().PutBlob(codelet.AddFunctionBlob())
	thunks := func(fn core.Handle, n int) []core.Handle {
		out := make([]core.Handle, n)
		for i := range out {
			tree, _ := eng.Store().PutTree(core.InvocationTree(lim, fn, core.LiteralU64(uint64(i)), core.LiteralU64(rng.Uint64()>>24)))
			out[i], _ = core.Application(tree)
		}
		return out
	}
	native := thunks(mergeFn, probeRounds*2000+200)
	ns, allocs = measure(2000, func(i int) { _, _ = eng.Eval(ctx, native[i]) })
	put("runtime.invoke_native_us", "us", 1e3, ns, allocs)
	vm := thunks(vmFn, probeRounds*2000+200)
	ns, allocs = measure(2000, func(i int) { _, _ = eng.Eval(ctx, vm[i]) })
	put("codelet.invoke_vm_us", "us", 1e3, ns, allocs)

	// A delegated job as the edge sends it: the invocation tree and the
	// function blob pushed with the Encode.
	tree := trees[0]
	treeH := core.TreeHandle(tree)
	th, _ := core.Application(treeH)
	enc, _ := core.Strict(th)
	job := &proto.Message{
		Type: proto.TypeJob, From: "fixgate", Handle: enc, Hops: 1, Trace: "0123456789abcdef",
		Pushed: []proto.PushedObject{
			{Handle: treeH, Data: core.EncodeTree(tree)},
			{Handle: addFn, Data: codelet.AddFunctionBlob()},
		},
	}
	var buf []byte
	ns, allocs = measure(20000, func(int) {
		buf = job.AppendEncode(buf[:0])
		_, _ = proto.Decode(buf)
	})
	put("proto.job_roundtrip_ns", "ns", 1, ns, allocs)
	return m
}

// probeRounds batches of iters calls follow a warm-up batch; a probe
// reports the median batch.
const probeRounds = 5

// measure calls f(i) for fresh i in batches and returns the median
// batch's ns per call and allocations per call.
func measure(iters int, f func(i int)) (ns, allocs float64) {
	i := 0
	for w := 0; w < min(iters, 200); w++ {
		f(i)
		i++
	}
	var nsv, allocv []float64
	var m0, m1 goruntime.MemStats
	for r := 0; r < probeRounds; r++ {
		goruntime.ReadMemStats(&m0)
		start := time.Now()
		for k := 0; k < iters; k++ {
			f(i)
			i++
		}
		el := time.Since(start)
		goruntime.ReadMemStats(&m1)
		nsv = append(nsv, float64(el.Nanoseconds())/float64(iters))
		allocv = append(allocv, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
	}
	return median(nsv), median(allocv)
}
