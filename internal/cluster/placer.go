package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"fixgo/internal/core"
	"fixgo/internal/obsv"
	"fixgo/internal/proto"
)

// dep is one object in a job's definition closure. An object reached
// only through a nested Encode is not read by the job itself: that Encode
// is forced, and placed, on its own before the job runs. Such a dep is
// shipped with the job (pushSet) but does not price its placement.
type dep struct {
	h      core.Handle
	size   uint64
	nested bool
}

// Offload implements runtime.Delegator: the node's dataflow-aware
// scheduler. Given an Encode about to be forced, it walks the job's
// locally known definition closure and prices each candidate by the bytes
// of the job's own inputs not already there (nested Encodes are placed
// when they are forced, so their data is not charged to this job), plus
// the hinted output size for non-local placements, plus a load charge
// when the candidate cannot start the job now. It delegates to the
// cheapest node — or declines (handled=false) when this node is cheapest.
//
// Delegations survive worker death: when the owning peer is evicted
// mid-flight, the job is re-placed on a surviving candidate (peers the
// job already died on are excluded), up to MaxReplacements attempts.
// Past the bound — or when no candidate survives — the job falls back to
// local evaluation, except on a ClientOnly node, which cannot execute
// and fails the job with an error wrapping ErrNoWorkers.
func (n *Node) Offload(ctx context.Context, enc core.Handle) (core.Handle, bool, error) {
	if hopsOf(ctx) >= n.opts.MaxHops {
		return core.Handle{}, false, nil
	}
	if rec, ok := receivedOf(ctx); ok && rec == enc {
		return core.Handle{}, false, nil
	}
	if !n.anyWorkerPeer() {
		if n.opts.ClientOnly {
			return core.Handle{}, true, ErrNoWorkers
		}
		return core.Handle{}, false, nil
	}
	deps, hint, ok := n.jobDeps(enc)
	if !ok {
		return core.Handle{}, false, nil
	}
	t := obsv.FromContext(ctx)
	placeStart := time.Now()
	tried := make(map[string]bool) // peers this job already died on
	replaced := 0
	for {
		if n.isClosed() {
			return core.Handle{}, true, ErrNodeClosed
		}
		candidates, peerByID := n.candidates()
		live := candidates[:0:0]
		remote := false
		for _, c := range candidates {
			if tried[c] {
				continue
			}
			live = append(live, c)
			if c != n.id {
				remote = true
			}
		}
		if !remote {
			// Every surviving worker already failed this job, or none
			// survive at all.
			if n.opts.ClientOnly {
				n.noteNet(func(s *NetStats) { s.ReplaceFailures++ })
				return core.Handle{}, true, fmt.Errorf("cluster: job has no surviving placement after %d attempts: %w", replaced+1, ErrNoWorkers)
			}
			if replaced > 0 {
				n.noteNet(func(s *NetStats) { s.JobsLocalFallback++ })
			}
			return core.Handle{}, false, nil
		}
		target := n.pick(enc, live, deps, hint)
		if target == n.id {
			if replaced > 0 {
				n.noteNet(func(s *NetStats) { s.JobsLocalFallback++ })
			}
			return core.Handle{}, false, nil
		}
		p := peerByID[target]
		if p == nil {
			tried[target] = true // raced away between snapshot and pick
			continue
		}
		// One placement span per attempt: re-placements after a worker
		// death show up as additional placement/delegate span pairs.
		t.AddSpanAt("placement", "", placeStart, time.Since(placeStart))
		res, err := n.delegate(ctx, p, enc, deps)
		placeStart = time.Now()
		var lost *PeerLostError
		if err == nil || !errors.As(err, &lost) {
			// Success, or a deterministic remote failure (the job itself
			// errored): re-running elsewhere would fail the same way.
			return res, true, err
		}
		// The worker died under the job. Re-place it on a survivor.
		tried[target] = true
		if replaced >= n.opts.MaxReplacements {
			if n.opts.ClientOnly {
				n.noteNet(func(s *NetStats) { s.ReplaceFailures++ })
				return core.Handle{}, true, fmt.Errorf("cluster: job re-placement bound (%d) exhausted: %w", n.opts.MaxReplacements, err)
			}
			n.noteNet(func(s *NetStats) { s.JobsLocalFallback++ })
			return core.Handle{}, false, nil
		}
		replaced++
		n.noteNet(func(s *NetStats) { s.JobsReplaced++ })
	}
}

// anyWorkerPeer reports whether at least one live worker peer exists.
func (n *Node) anyWorkerPeer() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.peers {
		if p.role == proto.RoleWorker {
			return true
		}
	}
	return false
}

// noteNet updates the failure-handling counters under the node lock.
func (n *Node) noteNet(f func(*NetStats)) {
	n.mu.Lock()
	f(&n.net)
	n.mu.Unlock()
}

// candidates lists placement targets: worker peers plus this node (unless
// it is client-only).
func (n *Node) candidates() ([]string, map[string]*peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	byID := make(map[string]*peer, len(n.peers))
	var out []string
	for id, p := range n.peers {
		if p.role != proto.RoleWorker {
			continue
		}
		out = append(out, id)
		byID[id] = p
	}
	if !n.opts.ClientOnly {
		out = append(out, n.id)
	}
	sort.Strings(out)
	return out, byID
}

// jobDeps walks the locally resident definition closure of an Encode's
// Thunk and collects the objects its execution will need, marking those
// reachable only through a nested Encode. It returns ok=false when the
// definition itself is not local (the job cannot be priced, so it runs
// here and fetching sorts it out).
func (n *Node) jobDeps(enc core.Handle) (deps []dep, hint uint64, ok bool) {
	thunk, err := core.EncodedThunk(enc)
	if err != nil {
		return nil, 0, false
	}
	def, err := core.ThunkDefinition(thunk)
	if err != nil {
		return nil, 0, false
	}
	if !def.IsLiteral() && !n.st.Contains(def) {
		return nil, 0, false
	}
	seen := make(map[core.Handle]int) // object → index in deps
	var walk func(h core.Handle, nested bool)
	walk = func(h core.Handle, nested bool) {
		switch h.RefKind() {
		case core.RefThunk:
			// The deferred computation's definition is itself a
			// dependency of running the job here or anywhere.
			inner, _ := core.ThunkDefinition(h)
			walk(inner, nested)
		case core.RefEncode:
			t, _ := core.EncodedThunk(h)
			inner, _ := core.ThunkDefinition(t)
			walk(inner, true)
		case core.RefObject:
			k := h.AsObject()
			if k.IsLiteral() {
				return
			}
			if i, ok := seen[k]; ok {
				if nested || !deps[i].nested {
					return
				}
				// First reached through a nested Encode, now directly:
				// the job reads it after all, and so its children.
				deps[i].nested = false
			} else {
				seen[k] = len(deps)
				size := k.Size()
				if k.Kind() == core.KindTree {
					size *= core.HandleSize
				}
				deps = append(deps, dep{h: k, size: size, nested: nested})
			}
			if k.Kind() == core.KindTree && n.st.Contains(k) {
				children, err := n.st.Tree(k)
				if err == nil {
					for _, c := range children {
						walk(c, nested)
					}
				}
			}
		default:
			// Refs are shallow dependencies: not needed to run.
		}
	}
	walk(def, false)

	// The limits entry hints the output size (section 4.2.2).
	if n.st.Contains(def) {
		if entries, err := n.st.Tree(def); err == nil && len(entries) > 0 {
			if raw, err := n.st.Blob(entries[0]); err == nil && len(raw) == len(core.DefaultLimits.Encode()) {
				if lim, err := core.DecodeLimits(raw); err == nil {
					hint = lim.OutputSizeHint
				}
			}
		}
	}
	return deps, hint, true
}

// pick chooses the placement. With NoLocality it is uniform random
// (the Fig. 8b ablation); otherwise minimal cost with a deterministic
// pseudo-random tie-break so equal-cost jobs spread. A candidate's cost
// is the bytes of the job's own inputs it lacks, plus the output-size
// hint if it is remote, plus loadPenaltyBytes per job ahead of this one
// there: for this node, one when every engine core is claimed; for a
// peer, each of our outstanding delegations to it.
func (n *Node) pick(enc core.Handle, candidates []string, deps []dep, hint uint64) string {
	if n.opts.NoLocality {
		n.mu.Lock()
		defer n.mu.Unlock()
		return candidates[n.rng.Intn(len(candidates))]
	}
	// Ancestors blocked on their children's results hold no core, so
	// they do not count: this node is loaded only when the job would
	// have to queue for a core.
	var selfLoad uint64
	if claimed, capacity := n.eng.Cores(); claimed >= capacity {
		selfLoad = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	best := ""
	var bestCost, bestTie uint64
	for _, cand := range candidates {
		var cost uint64
		for _, d := range deps {
			if !d.nested && !n.hasLocked(cand, d.h) {
				cost += d.size
			}
		}
		load := selfLoad
		if cand != n.id {
			cost += hint
			load = uint64(n.pending[cand])
		}
		cost += load * loadPenaltyBytes
		tie := tieBreak(enc, cand)
		if best == "" || cost < bestCost || (cost == bestCost && tie < bestTie) {
			best, bestCost, bestTie = cand, cost, tie
		}
	}
	return best
}

// loadPenaltyBytes prices one job queued ahead on a candidate in
// data-movement bytes: small enough that real locality (chunk-sized
// differences) still dominates, large enough to steer an equal-cost job
// off a saturated node and to spread delegations across peers.
const loadPenaltyBytes = 8 << 10

func (n *Node) hasLocked(node string, h core.Handle) bool {
	if node == n.id {
		return n.st.Contains(h)
	}
	return n.view.Holds(keyOf(h), node)
}

func tieBreak(enc core.Handle, cand string) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], fnvHash(cand))
	sum := fnvHash(string(enc[:]) + string(buf[:]))
	return sum
}

// delegate ships the job to the chosen peer: the Encode handle plus the
// cheap part of its definition closure (Trees, and Blobs up to PushLimit,
// that the peer is not known to have), then waits for the Result. A send
// failure or the peer's eviction mid-wait surfaces as PeerLostError so
// Offload can re-place the job.
func (n *Node) delegate(ctx context.Context, p *peer, enc core.Handle, deps []dep) (core.Handle, error) {
	pushed := n.pushSet(p.id, enc, deps)
	w := &jobWaiter{ch: make(chan jobResult, 1), peerID: p.id}
	n.mu.Lock()
	n.jobW[enc] = append(n.jobW[enc], w)
	n.pending[p.id]++
	n.net.JobsDelegated++
	n.mu.Unlock()
	defer n.pendingDec(p.id)

	t := obsv.FromContext(ctx)
	var traceID string
	if t != nil {
		traceID = t.ID
	}
	sp := t.StartSpan("delegate", p.id)
	msg := &proto.Message{
		Type:   proto.TypeJob,
		From:   n.id,
		Handle: enc,
		Hops:   uint8(hopsOf(ctx) + 1),
		Trace:  traceID,
		Pushed: pushed,
	}
	if err := p.send(msg); err != nil {
		n.dropJobWaiter(enc, w)
		return core.Handle{}, &PeerLostError{Peer: p.id, Cause: err}
	}
	select {
	case res := <-w.ch:
		sp.End()
		if res.evalNS > 0 {
			// The worker reports its eval wall time in the Result header;
			// attribute it so the delegate span decomposes into transit
			// plus remote compute.
			t.AddSpanDur("remote_eval", p.id, time.Duration(res.evalNS))
		}
		if res.err == nil {
			n.mu.Lock()
			n.viewAddLocked(res.result, p.id)
			n.mu.Unlock()
		}
		return res.result, res.err
	case <-ctx.Done():
		n.dropJobWaiter(enc, w)
		return core.Handle{}, ctx.Err()
	}
}

// pendingDec drops one in-flight count for id, tolerating the entry
// having been purged by an eviction in the meantime.
func (n *Node) pendingDec(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v, ok := n.pending[id]; ok {
		if v <= 1 {
			delete(n.pending, id)
		} else {
			n.pending[id] = v - 1
		}
	}
}

func (n *Node) dropJobWaiter(enc core.Handle, w *jobWaiter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ws := n.jobW[enc]
	for i, cand := range ws {
		if cand == w {
			n.jobW[enc] = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(n.jobW[enc]) == 0 {
		delete(n.jobW, enc)
	}
}

// pushSet gathers the definition closure objects worth shipping with a
// job: Trees (the invocation descriptions themselves) and small Blobs the
// target is not known to hold. Shipping dependency information with the
// job is what lets Fixpoint avoid scheduler round trips (section 4.2.1).
func (n *Node) pushSet(target string, enc core.Handle, deps []dep) []proto.PushedObject {
	const (
		maxObjects = 8192
		maxBytes   = 8 << 20
	)
	var out []proto.PushedObject
	var total int
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, d := range deps {
		if len(out) >= maxObjects || total >= maxBytes {
			break
		}
		if n.view.Holds(keyOf(d.h), target) {
			continue
		}
		isTree := d.h.Kind() == core.KindTree
		if !isTree && d.size > uint64(n.opts.PushLimit) {
			continue
		}
		data, err := n.st.ObjectBytes(d.h)
		if err != nil {
			continue
		}
		out = append(out, proto.PushedObject{Handle: d.h, Data: data})
		total += len(data)
		n.viewAddLocked(d.h, target) // optimistic: it will have it
	}
	return out
}
