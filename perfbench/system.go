package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"fixgo/internal/bptree"
	"fixgo/internal/buildsys"
	"fixgo/internal/cluster"
	"fixgo/internal/durable"
	"fixgo/internal/flatware"
	"fixgo/internal/gateway"
	"fixgo/internal/runtime"
	"fixgo/internal/transport"
	"fixgo/internal/wiki"
)

// sysConfig is the shape of one workload's deployment. Everything not
// named here is left at the cmd/fixgate and cmd/fixpoint flag defaults.
type sysConfig struct {
	workers int
	// tcp joins the edge to each worker over loopback TCP
	// (transport.Listen/Dial); otherwise links are simulated with link.
	tcp  bool
	link transport.LinkConfig
	// meshWorkers also links every pair of workers.
	meshWorkers bool
	// durable gives the gateway a data-dir: durable write-through and
	// the async jobs journal.
	durable bool
	// place stores data on worker i before any link exists, so the
	// worker's Hello advertises it.
	place func(i int, w *cluster.Node)
}

// system is one in-process deployment: SDK client → fixgate HTTP server
// → client-only edge node → worker nodes.
type system struct {
	client  *gateway.Client
	srv     *gateway.Server
	edge    *cluster.Node
	workers []*cluster.Node

	hs      *http.Server
	hc      *http.Client
	dur     *durable.Store
	dataDir string
	lis     []*transport.Listener
	bg      sync.WaitGroup
}

// nodes lists the edge and every worker.
func (s *system) nodes() []*cluster.Node { return append([]*cluster.Node{s.edge}, s.workers...) }

// newRegistry registers what both daemons register at boot.
func newRegistry(t *tracer, node string) *runtime.Registry {
	reg := runtime.NewRegistry()
	wiki.Register(reg, wiki.Config{})
	buildsys.Register(reg, buildsys.Config{})
	bptree.Register(reg)
	flatware.RegisterGetFile(reg)
	flatware.RegisterSeBS(reg)
	if t != nil {
		t.wrapRegistry(reg, node)
	}
	return reg
}

// boot assembles a deployment. A non-nil tracer installs the traced-run
// wrappers; workDir holds the gateway's data-dir when cfg.durable.
func boot(cfg sysConfig, t *tracer, workDir string) (*system, error) {
	s := &system{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	wrap := func(node string, c transport.Conn) transport.Conn {
		if t == nil {
			return c
		}
		return t.wrapConn(node, c)
	}

	// fixgate -peers …: a client-only node with the gateway's defaults.
	s.edge = cluster.NewNode("fixgate", cluster.NodeOptions{
		Cores:             1,
		ClientOnly:        true,
		Registry:          newRegistry(t, "fixgate"),
		HeartbeatInterval: time.Second,
		Replicas:          1,
	})
	// fixpoint: 32 cores, 64 GiB, heartbeats, and a trace ring.
	for i := 0; i < cfg.workers; i++ {
		id := fmt.Sprintf("w%d", i)
		w := cluster.NewNode(id, cluster.NodeOptions{
			Cores:             32,
			MemoryBytes:       64 << 30,
			Registry:          newRegistry(t, id),
			HeartbeatInterval: time.Second,
			Replicas:          1,
		})
		_, tr := cluster.NewNodeMetrics(w, nil)
		w.SetTracer(tr)
		s.workers = append(s.workers, w)
		if cfg.place != nil {
			cfg.place(i, w)
		}
	}

	link := func(a, b *cluster.Node) error {
		if !cfg.tcp {
			ca, cb := transport.Pipe(cfg.link)
			a.AttachPeer(wrap(a.ID(), ca))
			b.AttachPeer(wrap(b.ID(), cb))
			return nil
		}
		l, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		s.lis = append(s.lis, l)
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			_ = transport.Serve(l, func(c transport.Conn) { b.AttachPeer(wrap(b.ID(), c)) })
		}()
		c, err := transport.Dial(l.Addr().String())
		if err != nil {
			return err
		}
		a.AttachPeer(wrap(a.ID(), c))
		return nil
	}
	for _, w := range s.workers {
		if err := link(s.edge, w); err != nil {
			return nil, fmt.Errorf("link edge to %s: %w", w.ID(), err)
		}
	}
	if cfg.meshWorkers {
		for i := range s.workers {
			for j := i + 1; j < len(s.workers); j++ {
				if err := link(s.workers[i], s.workers[j]); err != nil {
					return nil, fmt.Errorf("link %s to %s: %w", s.workers[i].ID(), s.workers[j].ID(), err)
				}
			}
		}
	}
	want := map[*cluster.Node]int{s.edge: cfg.workers}
	for _, w := range s.workers {
		want[w] = 1
		if cfg.meshWorkers {
			want[w] = cfg.workers
		}
	}
	for n, k := range want {
		if err := waitPeers(n, k); err != nil {
			return nil, err
		}
	}

	gw := gateway.Options{
		Backend:         s.edge,
		CacheEntries:    4096,
		CacheShards:     16,
		MaxBatchItems:   256,
		MaxInFlight:     64,
		MaxQueue:        256,
		PersistErrors:   s.edge.Store().PersistErrors,
		AsyncWorkers:    8,
		AsyncQueueDepth: 1024,
		TraceEntries:    512,
	}
	if t != nil {
		gw.Backend = &backend{n: s.edge, t: t}
	}
	if cfg.durable {
		dir, err := os.MkdirTemp(workDir, "data-")
		if err != nil {
			return nil, err
		}
		s.dataDir = dir
		d, _, err := durable.Attach(dir, durable.Options{Fsync: durable.FsyncInterval}, s.edge.Store())
		if err != nil {
			return nil, fmt.Errorf("attach durable store: %w", err)
		}
		s.dur = d
		s.edge.AdvertiseAll()
		gw.DurableStats = d.Stats
		gw.JobsJournalPath = dir + "/jobs.journal"
		gw.JobsFsync = durable.FsyncInterval
	}
	srv, err := gateway.NewServer(gw)
	if err != nil {
		return nil, err
	}
	s.srv = srv

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if t != nil {
		h = t.middleware(h)
	}
	s.hs = &http.Server{Handler: h}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		_ = s.hs.Serve(l)
	}()

	// One process, at most nproc connections.
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     time.Minute,
	}
	if t != nil {
		rt = roundTripper{next: rt}
	}
	s.hc = &http.Client{Transport: rt, Timeout: 5 * time.Minute}
	s.client = gateway.NewClient("http://"+l.Addr().String(), gateway.WithHTTPClient(s.hc))
	ok = true
	return s, nil
}

// waitPeers waits until n has k live peers.
func waitPeers(n *cluster.Node, k int) error {
	deadline := time.Now().Add(10 * time.Second)
	for len(n.Peers()) < k {
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s: %d of %d peers after 10s", n.ID(), len(n.Peers()), k)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// close tears the deployment down and waits for the goroutines it
// started.
func (s *system) close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.hs.Shutdown(ctx)
		cancel()
		_ = s.hs.Close()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
	for _, l := range s.lis {
		_ = l.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
	if s.edge != nil {
		s.edge.Close()
	}
	if s.dur != nil {
		_ = s.dur.Close()
	}
	s.bg.Wait()
	if s.dataDir != "" {
		_ = os.RemoveAll(s.dataDir)
	}
}
