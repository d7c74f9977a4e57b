package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"recross"
	"recross/internal/cluster"
	"recross/internal/coldstore"
	"recross/internal/core"
	"recross/internal/serve"
)

// workload is one traffic mix and the server that answers it.
type workload struct {
	name string
	spec recross.ModelSpec
	// cfg is the system config without a profile (set-up adds it).
	cfg recross.Config
	// tailMass redirects that share of index draws to the cold half of
	// each table (Generator.SetTailMass).
	tailMass float64
	// rate is the nominal arrival rate, requests per second.
	rate float64
	// ladder is the ascending rate ladder max_rate_rps climbs.
	ladder []float64
	// limits a ladder rung must meet.
	limits ladderLimits
	// warm is the unmeasured warm-up at the nominal rate.
	warm time.Duration
	// prefix samples are reduced straight on the served layer before the
	// warm-up, so lazily built state (quantized slabs, cold pages) is in
	// place before timing starts.
	prefix int
}

// Server settings: the recross-serve defaults operators run.
const (
	maxBatch   = 32
	maxDelay   = 2 * time.Millisecond
	queueDepth = 256
	rowCache   = 64 << 20
	replicas   = 2
	reqTimeout = 10 * time.Second
	// Profiling pass of Config's defaults.
	profileSeed    = 12345
	profileSamples = 2000
	// Cluster shape.
	clusterPeers = 4
	// Client connections: at most one per CPU of the 2-CPU target.
	clientConns = 2
)

func serveOptions() recross.ServeOptions {
	return recross.ServeOptions{
		MaxBatch: maxBatch, MaxDelay: maxDelay, QueueDepth: queueDepth,
		RowCacheBytes: rowCache, DefaultTimeout: reqTimeout,
	}
}

// coldSpec is 8 tables of 500k rows, 16 gathers of 32-element vectors per
// op: 512 MB at fp32, about 160 MB at int8, against a 32 MiB DRAM budget.
func coldSpec() recross.ModelSpec {
	tabs := make([]recross.TableSpec, 8)
	for i := range tabs {
		tabs[i] = recross.TableSpec{
			Name: fmt.Sprintf("cold%d", i), Rows: 500_000, VecLen: 32, Pooling: 16,
			Prob: 1, Skew: 1.0 + 0.05*float64(i%4),
		}
	}
	return recross.ModelSpec{Name: "perfbench-cold", Tables: tabs}
}

// ladder is the nominal rate followed by n rungs from lo, each ratio
// times the last, rounded.
func ladder(nominal, lo, ratio float64, n int) []float64 {
	out := []float64{nominal}
	for r := lo; len(out) <= n; r *= ratio {
		out = append(out, float64(int(r+0.5)))
	}
	return out
}

// workloads are the traffic mixes; BENCHMARK.json says why each was
// chosen. Rates are sized for 2 CPUs: each nominal rate is at most about
// half of what the workload sustains, so a dip in host capacity does not
// queue the nominal stretch, and each ladder climbs past its knee.
func workloads() []*workload {
	lim := ladderLimits{P99Ms: 50, FailedFrac: 0.001, BacklogSlack: maxBatch, BacklogSlackS: 0.01}
	criteo := recross.CriteoKaggle(32, 16)
	return []*workload{
		{
			// The timing model does most of the work, the reduce little.
			name: "dram", spec: criteo,
			rate: 700, ladder: ladder(700, 1000, 1.05, 12), limits: lim, warm: 2 * time.Second,
		},
		{
			// Cold reads dominate and the timing model is small: int8
			// tables five times the DRAM budget over an int8 flash tier
			// (capacity and page cache as recross-serve -cold defaults).
			name: "cold", spec: coldSpec(),
			cfg: recross.Config{Precision: recross.INT8, Cold: &recross.ColdTierConfig{
				CapBytes: 1 << 30, ResidentBudgetBytes: 32 << 20, Precision: recross.INT8, CacheBytes: 1 << 20,
			}},
			tailMass: 0.1,
			rate:     300, ladder: ladder(300, 650, 1.06, 12), limits: lim, warm: 3 * time.Second,
			prefix: 4000,
		},
		{
			// Router fan-out and gather, the wire codec and the router's
			// sketch writes sit on every lookup.
			name: "cluster", spec: criteo,
			rate: 550, ladder: ladder(550, 900, 1.05, 12), limits: lim, warm: 2 * time.Second,
		},
	}
}

// stack is a running workload server plus the client that drives it.
type stack struct {
	client  *cluster.BinNode
	srv     *recross.Server   // the serving node (nil for cluster)
	peers   []*recross.Server // cluster peers
	cs      *recross.ClusterServer
	cfg     recross.Config // the served config, profile included
	closers []func()
}

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

// servers lists every serve.Server of the stack.
func (st *stack) servers() []*recross.Server {
	if st.srv != nil {
		return []*recross.Server{st.srv}
	}
	return st.peers
}

// setupTimes splits one set-up: profiling, construction, first answer.
type setupTimes struct {
	profile, build, first float64 // seconds
}

func (s setupTimes) total() float64 { return s.profile + s.build + s.first }

// listen serves a binary listener on a loopback port and returns its
// address.
func (st *stack) listen(bs *recross.BinServer) (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = bs.Serve(lis)
	}()
	st.closers = append(st.closers, func() {
		_ = bs.Close()
		<-done
	})
	return lis.Addr().String(), nil
}

// build stands the workload up and answers first through it. With tr
// set it builds the traced variant: the same servers, with replica
// Systems, the cold device, cluster nodes and dials decorated. dir holds
// cold-tier backing files.
func build(w *workload, first recross.Sample, dir string, tr *tracer) (*stack, setupTimes, error) {
	var times setupTimes
	st := &stack{}
	fail := func(err error) (*stack, setupTimes, error) {
		st.close()
		return nil, times, err
	}
	t0 := time.Now()
	prof, err := recross.NewProfile(w.spec, profileSeed, profileSamples)
	if err != nil {
		return fail(err)
	}
	t1 := time.Now()
	cfg := w.cfg
	cfg.Spec = w.spec
	cfg.Profile = prof
	if cfg.Cold != nil {
		cold := *cfg.Cold
		cold.Dir = dir
		cfg.Cold = &cold
	}
	st.cfg = cfg

	var addr string
	if w.name == "cluster" {
		addr, err = st.buildCluster(cfg, tr)
	} else {
		addr, err = st.buildNode(cfg, tr)
	}
	if err != nil {
		return fail(err)
	}
	st.client = cluster.NewBinNode("perfbench", addr, recross.BinNodeOptions{Conns: clientConns})
	st.closers = append(st.closers, func() { _ = st.client.Close() })
	t2 := time.Now()

	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	if _, err := st.client.Lookup(ctx, first); err != nil {
		return fail(fmt.Errorf("first answer: %w", err))
	}
	t3 := time.Now()
	times = setupTimes{profile: t1.Sub(t0).Seconds(), build: t2.Sub(t1).Seconds(), first: t3.Sub(t2).Seconds()}
	if tr != nil {
		base := tr.base
		tr.add(span{name: spSetupProf, start: t0.Sub(base).Nanoseconds(), end: t1.Sub(base).Nanoseconds()})
		tr.add(span{name: spSetupBuild, start: t1.Sub(base).Nanoseconds(), end: t2.Sub(base).Nanoseconds()})
		tr.add(span{name: spSetupAnswer, start: t2.Sub(base).Nanoseconds(), end: t3.Sub(base).Nanoseconds()})
	}
	return st, times, nil
}

// buildNode serves one node (dram, cold) behind a binary listener: with
// NewServer, or traced with the replicas built here (Config.ReplicaSystems
// + serve.New) so each System can be decorated.
func (st *stack) buildNode(cfg recross.Config, tr *tracer) (string, error) {
	var srv *recross.Server
	var bs *recross.BinServer
	var err error
	if tr == nil {
		if srv, err = recross.NewServer(recross.ReCross, cfg, replicas, serveOptions()); err != nil {
			return "", err
		}
		st.closers = append(st.closers, func() { _ = srv.Close() })
		if bs, err = recross.NewBinServer(srv); err != nil {
			return "", err
		}
	} else {
		if srv, err = tracedServer(cfg, replicas, tr); err != nil {
			return "", err
		}
		st.closers = append(st.closers, func() { _ = srv.Close() })
		if bs, err = cluster.NewBinServer(cluster.BinServerOptions{Backend: frontend{t: tr, srv: srv}, Layer: srv.Layer()}); err != nil {
			return "", err
		}
	}
	srv.RegisterExpo(bs.Expo)
	st.srv = srv
	return st.listen(bs)
}

// tracedServer assembles what NewServer assembles, with every replica
// System and the cold device wrapped by tr.
func tracedServer(cfg recross.Config, n int, tr *tracer) (*recross.Server, error) {
	systems, err := cfg.ReplicaSystems(recross.ReCross, n)
	if err != nil {
		return nil, err
	}
	layer, err := recross.NewLayer(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if cfg.Precision != recross.FP32 {
		if err := layer.SetPrecision(cfg.Precision); err != nil {
			return nil, err
		}
	}
	opts := serveOptions()
	opts.Systems = tr.wrapSystems(systems)
	opts.Layer = layer
	opts.Rebuild = func(id int) (recross.System, error) {
		sys, err := recross.NewSystem(recross.ReCross, cfg)
		if err != nil {
			return nil, err
		}
		return &system{System: sys, t: tr, replica: id}, nil
	}
	var store *coldstore.Store
	if c := cfg.Cold; c != nil {
		srcs := make([]coldstore.RowSource, layer.Tables())
		for i := range srcs {
			srcs[i] = layer.SourceTable(i)
		}
		store, err = coldstore.Open(coldstore.Config{
			Dir: c.Dir, Precision: c.Precision, PageBytes: c.PageBytes, CacheBytes: c.CacheBytes,
			Prefetch: c.Prefetch, Mmap: c.Mmap, DisableChecksum: c.DisableChecksum,
			Retries: c.Retries, RetryBackoff: c.RetryBackoff, ReadDeadline: c.ReadDeadline,
			BreakerThreshold: c.BreakerThreshold, BreakerCooldown: c.BreakerCooldown,
			BreakerProbes: c.BreakerProbes, ScrubInterval: c.ScrubInterval,
			WrapDevice: tr.wrapDevice,
		}, srcs)
		if err != nil {
			return nil, err
		}
		pl := systems[0].(*core.ReCross).Placement()
		layer.SetColdRoute(func(ti int, idx int64) bool {
			region, _ := pl.Locate(ti, idx)
			return region == core.RegionCold
		}, coldReader{store})
		opts.ColdDegraded = store.Degraded
		opts.OnClose = func() { store.Close() }
	}
	srv, err := serve.New(opts)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return nil, err
	}
	if store != nil {
		srv.RegisterExpo(store.Expo)
	}
	return srv, nil
}

type coldReader struct{ s *coldstore.Store }

func (r coldReader) ReadColdRow(ti int, idx int64, dst []float32) bool {
	return r.s.ReadRow(ti, idx, dst)
}

// buildCluster stands up binary-wire peers, a router over them
// (NewClusterServer with Peers) and the router's binary listener.
func (st *stack) buildCluster(cfg recross.Config, tr *tracer) (string, error) {
	var addrs []string
	for i := 0; i < clusterPeers; i++ {
		var srv *recross.Server
		var err error
		if tr == nil {
			srv, err = recross.NewServer(recross.ReCross, cfg, 1, serveOptions())
		} else {
			srv, err = tracedServer(cfg, 1, tr)
		}
		if err != nil {
			return "", err
		}
		st.closers = append(st.closers, func() { _ = srv.Close() })
		bs, err := recross.NewBinServer(srv)
		if err != nil {
			return "", err
		}
		srv.RegisterExpo(bs.Expo)
		addr, err := st.listen(bs)
		if err != nil {
			return "", err
		}
		st.peers = append(st.peers, srv)
		addrs = append(addrs, "bin://"+addr)
	}
	cc := recross.ClusterConfig{Peers: addrs, Wire: "binary", Serve: recross.ServeOptions{MaxBatch: maxBatch}}
	if tr != nil {
		cc.WrapNode = tr.wrapNode
		cc.WrapDial = tr.wrapDial
	}
	cs, err := recross.NewClusterServer(recross.ReCross, cfg, cc)
	if err != nil {
		return "", err
	}
	st.cs = cs
	st.closers = append(st.closers, func() { _ = cs.Close() })
	var bs *recross.BinServer
	if tr == nil {
		bs, err = recross.NewClusterBinServer(cs.Router)
	} else {
		bs, err = cluster.NewBinServer(cluster.BinServerOptions{Backend: router{t: tr, r: cs.Router}, Layer: cs.Router.Layer()})
	}
	if err != nil {
		return "", err
	}
	return st.listen(bs)
}

// warmPrefix reduces the prefix samples on the served layer on two
// goroutines.
func (st *stack) warmPrefix(in *inputs) {
	ph := in.phase("prefix")
	if ph == nil {
		return
	}
	layer := st.servers()[0].Layer()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := ph.first + k; i < ph.first+ph.n(); i += 2 {
				_, _ = layer.ReduceSample(in.pool.sample(i))
			}
		}(k)
	}
	wg.Wait()
}

// coldDir makes a fresh directory for cold-tier backing files.
func coldDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "perfbench", "cold")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
