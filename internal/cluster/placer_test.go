package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/proto"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
	"fixgo/internal/wiki"
)

// addFakePeer injects a synthetic peer (no receive loop) so pick and
// candidates can be exercised without real links.
func addFakePeer(n *Node, id string, role byte) *peer {
	a, _ := transport.Pipe(transport.LinkConfig{})
	p := &peer{id: id, role: role, conn: a}
	p.lastSeen.Store(time.Now().UnixNano())
	n.mu.Lock()
	n.peers[id] = p
	n.mu.Unlock()
	return p
}

func setView(n *Node, h core.Handle, owners ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, o := range owners {
		n.viewAddLocked(h, o)
	}
}

func testEnc(t *testing.T, n *Node, arg uint64) core.Handle {
	t.Helper()
	fn := n.Store().PutBlob(core.NativeFunctionBlob("f"))
	tree, err := n.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(arg)))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	return enc
}

// TestPickPlacementTable pins pick's cost model: bytes that must move to
// each candidate, plus the output-size hint for non-local placements.
func TestPickPlacementTable(t *testing.T) {
	remote := core.BlobHandle(bytes.Repeat([]byte{1}, 4096)) // never resident locally
	cases := []struct {
		name  string
		local bool     // the 4 KiB dependency is resident on the picker
		view  []string // peers the view locates the dependency on
		hint  uint64
		want  string
	}{
		{name: "dep only on w1 goes to w1", view: []string{"w1"}, want: "w1"},
		{name: "dep local stays local", local: true, hint: 64, want: "self"},
		{name: "huge hint beats locality", view: []string{"w1"}, hint: 1 << 20, want: "self"},
		{name: "dep on both w1 and self stays local (hint breaks the tie)", local: true, view: []string{"w1"}, hint: 64, want: "self"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNode("self", NodeOptions{Cores: 1})
			defer n.Close()
			addFakePeer(n, "w1", proto.RoleWorker)
			addFakePeer(n, "w2", proto.RoleWorker)
			var depH core.Handle
			if tc.local {
				depH = n.Store().PutBlob(bytes.Repeat([]byte{1}, 4096))
			} else {
				depH = remote
			}
			setView(n, depH, tc.view...)
			deps := []dep{{h: keyOf(depH), size: 4096}}
			enc := testEnc(t, n, 1)
			if got := n.pick(enc, []string{"self", "w1", "w2"}, deps, tc.hint); got != tc.want {
				t.Fatalf("pick = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestPickDeterministic: identical inputs must produce identical picks,
// call after call — placement is a pure function of (enc, view, load).
func TestPickDeterministic(t *testing.T) {
	n := NewNode("self", NodeOptions{Cores: 1})
	defer n.Close()
	addFakePeer(n, "w1", proto.RoleWorker)
	addFakePeer(n, "w2", proto.RoleWorker)
	for arg := uint64(0); arg < 32; arg++ {
		enc := testEnc(t, n, arg)
		first := n.pick(enc, []string{"self", "w1", "w2"}, nil, 0)
		for i := 0; i < 50; i++ {
			if got := n.pick(enc, []string{"self", "w1", "w2"}, nil, 0); got != first {
				t.Fatalf("arg %d: pick flapped %s → %s on call %d", arg, first, got, i)
			}
		}
	}
}

// TestPickTieBreakSpreads: with equal costs (no deps, no hint) the
// deterministic pseudo-random tie-break must spread distinct jobs across
// candidates instead of piling onto one.
func TestPickTieBreakSpreads(t *testing.T) {
	n := NewNode("self", NodeOptions{Cores: 1})
	defer n.Close()
	addFakePeer(n, "w1", proto.RoleWorker)
	addFakePeer(n, "w2", proto.RoleWorker)
	winners := make(map[string]int)
	for arg := uint64(0); arg < 64; arg++ {
		winners[n.pick(testEnc(t, n, arg), []string{"self", "w1", "w2"}, nil, 0)]++
	}
	if len(winners) < 2 {
		t.Fatalf("64 equal-cost jobs all picked one node: %v", winners)
	}
}

// TestPickEmptyViewFallback: a dependency nobody is known to hold costs
// the same bytes everywhere, so the output-size hint (charged only to
// remote placements) must keep the job local.
func TestPickEmptyViewFallback(t *testing.T) {
	n := NewNode("self", NodeOptions{Cores: 1})
	defer n.Close()
	addFakePeer(n, "w1", proto.RoleWorker)
	ghost := core.BlobHandle(bytes.Repeat([]byte{3}, 2048))
	deps := []dep{{h: keyOf(ghost), size: 2048}}
	for arg := uint64(0); arg < 16; arg++ {
		if got := n.pick(testEnc(t, n, arg), []string{"self", "w1"}, deps, 64); got != "self" {
			t.Fatalf("arg %d: pick = %s, want self (hint must break the unknown-owner tie)", arg, got)
		}
	}
}

// TestPickNeverSelectsEvictedPeer is the property-style pin: after any
// sequence of evictions, neither candidates() nor pick() may name an
// evicted peer, and the view must hold no evicted owner.
func TestPickNeverSelectsEvictedPeer(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NewNode("self", NodeOptions{Cores: 1})
		peerIDs := []string{"w0", "w1", "w2", "w3", "w4"}
		peers := make(map[string]*peer, len(peerIDs))
		for _, id := range peerIDs {
			peers[id] = addFakePeer(n, id, proto.RoleWorker)
		}
		// Scatter view entries over random owner subsets.
		handles := make([]core.Handle, 20)
		for i := range handles {
			handles[i] = core.BlobHandle(bytes.Repeat([]byte{byte(i)}, 600+i))
			for _, id := range peerIDs {
				if rng.Intn(2) == 0 {
					setView(n, handles[i], id)
				}
			}
		}
		// Evict a random non-empty subset.
		evicted := make(map[string]bool)
		for _, id := range peerIDs {
			if rng.Intn(2) == 0 {
				evicted[id] = true
				n.evictPeer(peers[id], fmt.Errorf("test eviction"))
			}
		}
		if len(evicted) == 0 {
			evicted[peerIDs[0]] = true
			n.evictPeer(peers[peerIDs[0]], fmt.Errorf("test eviction"))
		}
		// The view must be clean of evicted owners.
		n.mu.Lock()
		for _, h := range handles {
			for _, id := range n.view.Owners(keyOf(h)) {
				if evicted[id] {
					n.mu.Unlock()
					t.Fatalf("seed %d: view[%v] still lists evicted %s", seed, h, id)
				}
			}
		}
		n.mu.Unlock()
		// And placement must never name an evicted peer.
		for trial := 0; trial < 200; trial++ {
			var deps []dep
			for k := 0; k < rng.Intn(4); k++ {
				h := handles[rng.Intn(len(handles))]
				deps = append(deps, dep{h: keyOf(h), size: h.Size()})
			}
			candidates, peerByID := n.candidates()
			for _, c := range candidates {
				if evicted[c] {
					t.Fatalf("seed %d: candidates() lists evicted %s", seed, c)
				}
			}
			target := n.pick(testEnc(t, n, uint64(trial)), candidates, deps, uint64(rng.Intn(2048)))
			if evicted[target] {
				t.Fatalf("seed %d trial %d: pick selected evicted peer %s", seed, trial, target)
			}
			if target != n.id && peerByID[target] == nil {
				t.Fatalf("seed %d trial %d: pick selected unknown peer %s", seed, trial, target)
			}
		}
		n.Close()
	}
}

// blockingRegistry registers "block", a procedure that holds its core
// until release is closed.
func blockingRegistry(release <-chan struct{}) *runtime.Registry {
	reg := countRegistry()
	reg.RegisterFunc("block", func(api core.API, input core.Handle) (core.Handle, error) {
		<-release
		return api.CreateBlob(core.LiteralU64(0).LiteralData()), nil
	})
	return reg
}

// holdCore starts a "block" job on n, which must have no worker peers
// yet so the job runs locally, and waits until the job has claimed a
// core.
// The returned func releases the core and waits for the job to finish.
func holdCore(t *testing.T, n *Node, release chan struct{}) func() {
	t.Helper()
	fn := n.Store().PutBlob(core.NativeFunctionBlob("block"))
	tree, err := n.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, core.LiteralU64(7)))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	done := make(chan error, 1)
	go func() {
		_, err := n.Eval(context.Background(), enc)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if claimed, _ := n.eng.Cores(); claimed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocking job never claimed a core")
		}
	}
	return func() {
		close(release)
		if err := <-done; err != nil {
			t.Errorf("blocking job: %v", err)
		}
	}
}

// reduction builds sum(len(a), len(b)) on n and returns the merge's
// Encode, its own tree, and the two leaf Encodes.
func reduction(t *testing.T, n *Node, a, b core.Handle) (merge, mergeTree core.Handle, leaves [2]core.Handle) {
	t.Helper()
	st := n.Store()
	leaves = [2]core.Handle{lenJob(t, n, a), lenJob(t, n, b)}
	sumFn := st.PutBlob(core.NativeFunctionBlob("sum"))
	mergeTree, err := st.PutTree(core.InvocationTree(core.DefaultLimits.Handle(), sumFn, leaves[0], leaves[1]))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(mergeTree)
	merge, _ = core.Strict(th)
	return merge, mergeTree, leaves
}

// TestPickMergeStaysLocalBelowCapacity: a merge whose own inputs are all
// resident stays on the forcing node, even though the chunks its children
// read live on peers and one job already holds a core. The children are
// placed on their own when the merge forces them.
func TestPickMergeStaysLocalBelowCapacity(t *testing.T) {
	release := make(chan struct{})
	n := NewNode("self", NodeOptions{Cores: 2, Registry: blockingRegistry(release)})
	defer n.Close()
	defer holdCore(t, n, release)()
	addFakePeer(n, "w1", proto.RoleWorker)
	addFakePeer(n, "w2", proto.RoleWorker)
	chunkA := core.BlobHandle(bytes.Repeat([]byte{1}, 4096))
	chunkB := core.BlobHandle(bytes.Repeat([]byte{2}, 4096))
	setView(n, chunkA, "w1")
	setView(n, chunkB, "w2")
	merge, _, _ := reduction(t, n, chunkA, chunkB)
	deps, hint, ok := n.jobDeps(merge)
	if !ok {
		t.Fatal("merge definition not priceable")
	}
	if got := n.pick(merge, []string{"self", "w1", "w2"}, deps, hint); got != "self" {
		t.Fatalf("pick = %s, want self (own inputs resident, 1 of 2 cores claimed)", got)
	}
}

// TestPickSaturatedGoesToIdlePeer: once every core is claimed, a job that
// costs the same everywhere goes to an idle peer instead of queueing.
func TestPickSaturatedGoesToIdlePeer(t *testing.T) {
	release := make(chan struct{})
	n := NewNode("self", NodeOptions{Cores: 1, Registry: blockingRegistry(release)})
	defer n.Close()
	defer holdCore(t, n, release)()
	addFakePeer(n, "w1", proto.RoleWorker)
	for arg := uint64(0); arg < 16; arg++ {
		if got := n.pick(testEnc(t, n, arg), []string{"self", "w1"}, nil, 0); got != "w1" {
			t.Fatalf("arg %d: pick = %s, want w1 (self has no free core)", arg, got)
		}
	}
}

// TestJobDepsNestedPushedNotPriced: data reached only through a nested
// Encode ships with the job but does not price it. The peer holding the
// merge's own inputs wins over the one holding its children's data, and
// the push set still carries the children's trees and small chunks.
func TestJobDepsNestedPushedNotPriced(t *testing.T) {
	n := NewNode("self", NodeOptions{Cores: 1})
	defer n.Close()
	addFakePeer(n, "w1", proto.RoleWorker)
	addFakePeer(n, "w2", proto.RoleWorker)
	chunkA := n.Store().PutBlob(bytes.Repeat([]byte{1}, 1024))
	chunkB := n.Store().PutBlob(bytes.Repeat([]byte{2}, 1024))
	merge, mergeTree, leaves := reduction(t, n, chunkA, chunkB)
	deps, hint, ok := n.jobDeps(merge)
	if !ok {
		t.Fatal("merge definition not priceable")
	}
	nested := make(map[core.Handle]bool)
	for _, d := range deps {
		nested[d.h] = d.nested
	}
	leafTrees := make([]core.Handle, 0, 2)
	for _, l := range leaves {
		th, _ := core.EncodedThunk(l)
		def, _ := core.ThunkDefinition(th)
		leafTrees = append(leafTrees, def)
	}
	wantNested := []core.Handle{chunkA, chunkB, leafTrees[0], leafTrees[1]}
	for _, h := range wantNested {
		if is, found := nested[keyOf(h)]; !found || !is {
			t.Fatalf("%v: in deps %v, nested %v; want a nested dep", h, found, is)
		}
	}
	if nested[keyOf(mergeTree)] {
		t.Fatal("the merge's own tree is marked nested")
	}

	// w1 holds the merge's own inputs; w2 holds everything its children read.
	for _, d := range deps {
		if d.nested {
			setView(n, d.h, "w2")
		} else {
			setView(n, d.h, "w1")
		}
	}
	if got := n.pick(merge, []string{"w1", "w2"}, deps, hint); got != "w1" {
		t.Fatalf("pick = %s, want w1 (nested data must not price the merge)", got)
	}

	pushed := make(map[core.Handle]bool)
	for _, p := range n.pushSet("w3", merge, deps) {
		pushed[keyOf(p.Handle)] = true
	}
	for _, h := range append(wantNested, mergeTree) {
		if !pushed[keyOf(h)] {
			t.Fatalf("push set lacks %v", h)
		}
	}
}

// frame is what recordConn keeps of one sent message.
type frame struct {
	typ byte
	h   core.Handle
}

// recordConn notes the type and subject of every frame sent through it.
type recordConn struct {
	transport.Conn
	mu   sync.Mutex
	sent []frame
}

func (c *recordConn) Send(msg []byte) error {
	if m, err := proto.Decode(msg); err == nil {
		c.mu.Lock()
		c.sent = append(c.sent, frame{typ: m.Type, h: m.Handle})
		c.mu.Unlock()
	}
	return c.Conn.Send(msg)
}

// frames returns the frames of type typ sent through c.
func (c *recordConn) frames(typ byte) []frame {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []frame
	for _, f := range c.sent {
		if f.typ == typ {
			out = append(out, f)
		}
	}
	return out
}

// recordedMesh is FullMesh with every link end wrapped in a recordConn.
// out[i] lists the conns nodes[i] sends on.
func recordedMesh(cfg transport.LinkConfig, nodes ...*Node) [][]*recordConn {
	out := make([][]*recordConn, len(nodes))
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			a, b := transport.Pipe(cfg)
			ra, rb := &recordConn{Conn: a}, &recordConn{Conn: b}
			out[i] = append(out[i], ra)
			out[j] = append(out[j], rb)
			nodes[i].AttachPeer(ra)
			nodes[j].AttachPeer(rb)
			waitPeer(nodes[i], nodes[j].id)
			waitPeer(nodes[j], nodes[i].id)
		}
	}
	return out
}

// sentFrames collects the frames of type typ sent on any of conns.
func sentFrames(conns []*recordConn, typ byte) []frame {
	var out []frame
	for _, c := range conns {
		out = append(out, c.frames(typ)...)
	}
	return out
}

// TestLiteralResultSendsNoAdvertise: a delegated job whose result is a
// literal has nothing to advertise, so the worker sends no Advertise. A
// job with a stored result still advertises it.
func TestLiteralResultSendsNoAdvertise(t *testing.T) {
	reg := countRegistry()
	reg.RegisterFunc("pad", func(api core.API, input core.Handle) (core.Handle, error) {
		return api.CreateBlob(bytes.Repeat([]byte{9}, 2*core.MaxLiteral)), nil
	})
	client := NewNode("client", NodeOptions{ClientOnly: true, Registry: reg})
	w := NewNode("w", NodeOptions{Cores: 1, Registry: reg})
	defer client.Close()
	defer w.Close()
	blob := w.Store().PutBlob(bytes.Repeat([]byte{5}, 512))
	conns := recordedMesh(fastLink(), client, w)

	got, err := client.EvalBlob(context.Background(), lenJob(t, client, blob))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := core.DecodeU64(got); v != 512 {
		t.Fatalf("len = %d, want 512", v)
	}
	if n := len(sentFrames(conns[1], proto.TypeResult)); n != 1 {
		t.Fatalf("worker sent %d Results, want 1", n)
	}
	if n := len(sentFrames(conns[1], proto.TypeAdvertise)); n != 0 {
		t.Fatalf("worker sent %d Advertises for a literal result, want 0", n)
	}

	fn := client.Store().PutBlob(core.NativeFunctionBlob("pad"))
	tree, err := client.Store().PutTree(core.InvocationTree(core.DefaultLimits.Handle(), fn, blob))
	if err != nil {
		t.Fatal(err)
	}
	th, _ := core.Application(tree)
	enc, _ := core.Strict(th)
	if _, err := client.EvalBlob(context.Background(), enc); err != nil {
		t.Fatal(err)
	}
	if n := len(sentFrames(conns[1], proto.TypeAdvertise)); n != 1 {
		t.Fatalf("worker sent %d Advertises after a stored result, want 1", n)
	}
}

// TestPlacementReductionCounts: a client-only node submits a reduction
// over 32 chunks of 64 KiB spread round-robin over 4 workers. The root
// goes to one worker, which runs every merge and its own 8 leaves itself
// and delegates each other leaf to its chunk's holder: 1 + 24 jobs.
func TestPlacementReductionCounts(t *testing.T) {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	client := NewNode("client", NodeOptions{ClientOnly: true, Registry: reg})
	defer client.Close()
	nodes := []*Node{client}
	for i := 0; i < 4; i++ {
		w := NewNode(fmt.Sprintf("w%d", i), NodeOptions{Registry: reg, Seed: int64(i) + 1})
		defer w.Close()
		nodes = append(nodes, w)
	}
	const needle = "fixpoint"
	chunks := make([]core.Handle, 32)
	var want uint64
	for i := range chunks {
		data := wiki.Chunk(int64(i), 64<<10, needle, 797)
		want += wiki.CountNonOverlapping(data, []byte(needle))
		chunks[i] = nodes[1+i%4].Store().PutBlob(data)
	}
	conns := recordedMesh(fastLink(), nodes...)

	job, err := wiki.BuildJob(client.Store(), needle, chunks)
	if err != nil {
		t.Fatal(err)
	}
	out, err := client.EvalBlob(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := core.DecodeU64(out); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}

	var delegated uint64
	for _, n := range nodes {
		delegated += n.NetStats().JobsDelegated
	}
	if delegated != 25 {
		t.Fatalf("jobs delegated = %d, want 25 (1 root + 24 remote leaves)", delegated)
	}
	mergeFn := client.Store().PutBlob(core.NativeFunctionBlob(wiki.MergeProcName))
	isMerge := func(enc core.Handle) bool {
		th, _ := core.EncodedThunk(enc)
		def, _ := core.ThunkDefinition(th)
		entries, err := client.Store().Tree(def)
		return err == nil && len(entries) > 1 && entries[1] == mergeFn
	}
	if jobs := sentFrames(conns[0], proto.TypeJob); len(jobs) != 1 || jobs[0].h != job {
		t.Fatalf("client sent %d jobs, want only the root", len(jobs))
	}
	for i, n := range nodes[1:] {
		for _, f := range sentFrames(conns[1+i], proto.TypeJob) {
			if isMerge(f.h) {
				t.Fatalf("%s delegated a merge", n.id)
			}
		}
	}
}
