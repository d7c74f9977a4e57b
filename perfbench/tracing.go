package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"recross"
	"recross/internal/cluster"
	"recross/internal/coldstore"
)

// Span names. A span's layer is the part before the dot.
const (
	spClient      = "client.request"     // due time to answer, one per request
	spFrontend    = "serve.frontend"     // binary listener's backend call
	spRun         = "core.run"           // System.Run of one batch
	spRoute       = "cluster.route"      // Router.Lookup
	spSubreq      = "cluster.subreq"     // one node sub-request
	spColdRead    = "coldstore.read"     // device page read
	spColdWrite   = "coldstore.write"    // device page write (lazy population)
	spSetupProf   = "setup.profile"      // NewProfile
	spSetupBuild  = "setup.build"        // construction with Config.Profile set
	spSetupAnswer = "setup.first_answer" // first lookup after construction
)

// span is one timed call. Req is the request (pool index + 1) the span
// served, 0 when it served none (set-up) and -1 when it cannot be tied
// to one request (asynchronous page I/O). Parent is the span that caused
// it; the client span of request r has ID r. Attr carries the replica,
// node or batch size, depending on the span.
type span struct {
	name       string
	id, parent int64
	req        int64
	start, end int64 // ns since the tracer's base
	attr       int64
}

// reqTrace collects one request's server-side timestamps (ns since base)
// and the spans that served it.
type reqTrace struct {
	frontID          int64 // serve.frontend or cluster.route span
	inNs, outNs      int64 // that span's start and end
	runID            int64 // core.run span of the request's batch
	runStart, runEnd int64
	routeNs          int64 // Router.Lookup duration
	maxSubNs         atomic.Int64
}

// tracer keeps spans in memory and writes them out when the run ends.
// Every decorator here wraps a public function or seam of one layer; the
// program itself is not changed.
type tracer struct {
	base   time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	byPrint map[uint64]int32 // sample fingerprint -> pool index (read-only)
	reqs    []reqTrace

	ptrMu sync.Mutex
	ptrs  map[uintptr]int32 // in-flight sample -> pool index

	// Layer counters.
	runs, runNs, simCycles atomic.Int64
	coldReads, coldWrites  atomic.Int64
	wireBytes              atomic.Int64
	lookups                atomic.Int64
	hedged, fanout         atomic.Int64

	durMu  sync.Mutex
	readNs []float64
	subNs  []float64
	runDur []float64
}

func newTracer(base time.Time, p *pool) *tracer {
	t := &tracer{
		base:    base,
		byPrint: make(map[uint64]int32, p.len()),
		reqs:    make([]reqTrace, p.len()),
		ptrs:    make(map[uintptr]int32),
		spans:   make([]span, 0, 1<<16),
	}
	for i := 0; i < p.len(); i++ {
		t.byPrint[fingerprint(p.sample(i))] = int32(i)
	}
	// IDs 1..n belong to the client spans of requests 1..n.
	t.nextID.Store(int64(p.len()) + 1)
	return t
}

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

func (t *tracer) add(s span) {
	if s.id == 0 {
		s.id = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reqOf names the request a decoded sample belongs to (-1 if unknown).
func (t *tracer) reqOf(s recross.Sample) int {
	if i, ok := t.byPrint[fingerprint(s)]; ok {
		return int(i)
	}
	return -1
}

func samplePtr(s recross.Sample) uintptr { return uintptr(unsafe.Pointer(&s[0])) }

// ---- serve: the binary listener's backend ----

// frontend wraps the server behind the binary listener: it times each
// backend call and lets core.run spans find their requests by the
// sample's address while it is in flight.
type frontend struct {
	t   *tracer
	srv *recross.Server
}

func (f frontend) Lookup(ctx context.Context, s recross.Sample) (*recross.ServeResult, error) {
	i := f.t.reqOf(s)
	if i < 0 {
		return f.srv.Lookup(ctx, s)
	}
	rt := &f.t.reqs[i]
	rt.frontID = f.t.nextID.Add(1)
	rt.inNs = f.t.now()
	p := samplePtr(s)
	f.t.ptrMu.Lock()
	f.t.ptrs[p] = int32(i)
	f.t.ptrMu.Unlock()
	res, err := f.srv.Lookup(ctx, s)
	rt.outNs = f.t.now()
	f.t.ptrMu.Lock()
	delete(f.t.ptrs, p)
	f.t.ptrMu.Unlock()
	f.t.add(span{name: spFrontend, id: rt.frontID, parent: int64(i) + 1, req: int64(i) + 1, start: rt.inNs, end: rt.outNs})
	return res, err
}

func (f frontend) Health() recross.HealthReport { return f.srv.Health() }

// ---- core: the replica System ----

// system times Run on one replica.
type system struct {
	recross.System
	t       *tracer
	replica int
}

func (s *system) Run(b recross.Batch) (*recross.RunStats, error) {
	start := s.t.now()
	st, err := s.System.Run(b)
	end := s.t.now()
	s.t.runs.Add(1)
	s.t.runNs.Add(end - start)
	if st != nil {
		s.t.simCycles.Add(int64(st.Cycles))
	}
	s.t.durMu.Lock()
	s.t.runDur = append(s.t.runDur, float64(end-start))
	s.t.durMu.Unlock()

	id := s.t.nextID.Add(1)
	var first int64 = -1
	var parent int64
	s.t.ptrMu.Lock()
	for _, smp := range b {
		if len(smp) == 0 {
			continue
		}
		i, ok := s.t.ptrs[samplePtr(smp)]
		if !ok {
			continue
		}
		rt := &s.t.reqs[i]
		rt.runStart, rt.runEnd, rt.runID = start, end, id
		if first < 0 {
			first, parent = int64(i)+1, rt.frontID
		}
	}
	s.t.ptrMu.Unlock()
	s.t.add(span{name: spRun, id: id, parent: parent, req: first, start: start, end: end, attr: int64(s.replica)})
	return st, err
}

func (t *tracer) wrapSystems(systems []recross.System) []recross.System {
	out := make([]recross.System, len(systems))
	for i, sys := range systems {
		out[i] = &system{System: sys, t: t, replica: i}
	}
	return out
}

// ---- coldstore: the page device ----

type device struct {
	coldstore.Device
	t *tracer
}

func (d device) ReadPage(page int64, dst []byte) error {
	start := d.t.now()
	err := d.Device.ReadPage(page, dst)
	end := d.t.now()
	d.t.coldReads.Add(1)
	d.t.durMu.Lock()
	d.t.readNs = append(d.t.readNs, float64(end-start))
	d.t.durMu.Unlock()
	d.t.add(span{name: spColdRead, req: -1, start: start, end: end, attr: page})
	return err
}

func (d device) WritePage(page int64, src []byte) error {
	start := d.t.now()
	err := d.Device.WritePage(page, src)
	d.t.coldWrites.Add(1)
	d.t.add(span{name: spColdWrite, req: -1, start: start, end: d.t.now(), attr: page})
	return err
}

func (t *tracer) wrapDevice(d recross.ColdDevice) recross.ColdDevice { return device{Device: d, t: t} }

// ---- cluster: router, node sub-requests, wire bytes ----

type ctxKey struct{}

// routeCtx travels in the router's context so node sub-requests name
// their request and parent span.
type routeCtx struct {
	req    int
	parent int64
}

// router fronts a cluster router on the binary listener, mapping its
// answers exactly as cluster.RouterBackend does.
type router struct {
	t *tracer
	r *recross.ClusterRouter
}

func (r router) Lookup(ctx context.Context, s recross.Sample) (*recross.ServeResult, error) {
	i := r.t.reqOf(s)
	id := r.t.nextID.Add(1)
	if i >= 0 {
		ctx = context.WithValue(ctx, ctxKey{}, routeCtx{req: i, parent: id})
	}
	start := r.t.now()
	res, err := r.r.Lookup(ctx, s)
	end := r.t.now()
	if err != nil {
		return nil, err
	}
	r.t.lookups.Add(1)
	r.t.fanout.Add(int64(res.Nodes))
	if res.Hedged {
		r.t.hedged.Add(1)
	}
	if i >= 0 {
		rt := &r.t.reqs[i]
		rt.frontID, rt.inNs, rt.outNs = id, start, end
		rt.routeNs = end - start
		r.t.add(span{name: spRoute, id: id, parent: int64(i) + 1, req: int64(i) + 1, start: start, end: end, attr: int64(res.Nodes)})
	}
	return &recross.ServeResult{
		Vectors:       res.Vectors,
		BatchSize:     len(s),
		ServiceCycles: res.ServiceCycles,
		Replica:       -1,
		Retries:       res.Retries,
		Degraded:      res.Degraded,
		Total:         res.Total,
	}, nil
}

func (r router) Health() recross.HealthReport {
	return cluster.RouterBackend{R: r.r}.Health()
}

// node times the router's sub-requests to one cluster node.
type node struct {
	recross.ClusterNode
	t   *tracer
	idx int
}

func (n node) Lookup(ctx context.Context, s recross.Sample) (*recross.ServeResult, error) {
	start := n.t.now()
	res, err := n.ClusterNode.Lookup(ctx, s)
	end := n.t.now()
	n.t.durMu.Lock()
	n.t.subNs = append(n.t.subNs, float64(end-start))
	n.t.durMu.Unlock()
	rc, ok := ctx.Value(ctxKey{}).(routeCtx)
	if !ok {
		n.t.add(span{name: spSubreq, req: -1, start: start, end: end, attr: int64(n.idx)})
		return res, err
	}
	m := &n.t.reqs[rc.req].maxSubNs
	for d := end - start; ; {
		cur := m.Load()
		if d <= cur || m.CompareAndSwap(cur, d) {
			break
		}
	}
	n.t.add(span{name: spSubreq, parent: rc.parent, req: int64(rc.req) + 1, start: start, end: end, attr: int64(n.idx)})
	return res, err
}

func (t *tracer) wrapNode(i int, n recross.ClusterNode) recross.ClusterNode {
	return node{ClusterNode: n, t: t, idx: i}
}

// countingConn counts the bytes a router exchanges with its peers.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

func (t *tracer) wrapDial(_ int, d recross.BinDial) recross.BinDial {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var c net.Conn
		var err error
		if d != nil {
			c, err = d(ctx, addr)
		} else {
			var nd net.Dialer
			c, err = nd.DialContext(ctx, "tcp", addr)
		}
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: c, n: &t.wireBytes}, nil
	}
}

// ---- output ----

// clientSpans adds one client span per answered request of the open loop.
func (t *tracer) clientSpans(d *openLoop, ph *phase) {
	for i := ph.first; i < ph.first+ph.n(); i++ {
		if d.state[i] == stPending {
			continue
		}
		due := d.recvAt[i] - d.lat[i]
		t.add(span{name: spClient, id: int64(i) + 1, req: int64(i) + 1, start: due, end: d.recvAt[i], attr: d.late[i]})
	}
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"req":%d,"start_ns":%d,"end_ns":%d,"attr":%d}`+"\n",
			s.name, s.id, s.parent, s.req, s.start, s.end, s.attr)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
