package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"time"

	"recross"
)

// Replays run fixed inputs, drawn from replaySeed whatever the run's seed,
// so their counts repeat exactly between runs.
const (
	replaySeed    = 99
	replayBatches = 8
)

func replaySamples(w *workload, n int) ([]recross.Sample, error) {
	gen, err := recross.NewGenerator(w.spec, replaySeed)
	if err != nil {
		return nil, err
	}
	if w.tailMass > 0 {
		if err := gen.SetTailMass(w.tailMass); err != nil {
			return nil, err
		}
	}
	out := make([]recross.Sample, n)
	for i := range out {
		out[i] = gen.Sample()
	}
	return out, nil
}

// simReplay runs a fixed list of n batches of the given size through a
// fresh System built from cfg and returns the simulated cycles per batch,
// which repeat exactly between runs.
func simReplay(w *workload, cfg recross.Config, batch, n int) (float64, error) {
	sys, err := recross.NewSystem(recross.ReCross, cfg)
	if err != nil {
		return 0, err
	}
	samples, err := replaySamples(w, batch*n)
	if err != nil {
		return 0, err
	}
	var cycles int64
	for k := 0; k < n; k++ {
		st, err := sys.Run(recross.Batch(samples[k*batch : (k+1)*batch]))
		if err != nil {
			return 0, err
		}
		cycles += int64(st.Cycles)
	}
	return float64(cycles) / float64(n), nil
}

// reduceReplay times Layer.ReduceSample on the served layer (its row
// cache and cold route included) and returns the median in µs.
func reduceReplay(layer *recross.Layer, samples []recross.Sample) float64 {
	durs := make([]float64, 0, len(samples))
	for _, s := range samples {
		t0 := time.Now()
		if _, err := layer.ReduceSample(s); err != nil {
			continue
		}
		durs = append(durs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return zeroNaN(median(durs))
}

// observeReplay times the frequency sketch's Observe (the adapt layer's
// write on every routed or admitted lookup) per sample, in ns; 0 without
// a tracker.
func observeReplay(t *recross.FreqTracker, samples []recross.Sample) float64 {
	if t == nil || len(samples) == 0 {
		return 0
	}
	t0 := time.Now()
	for _, s := range samples {
		t.Observe(s)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(samples))
}

// expoValue reads one unlabelled series from a server's /metrics page
// (0 when absent).
func expoValue(h http.Handler, name string) float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, _ := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f
		}
	}
	return 0
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// msOf converts a span of nanosecond samples to µs and takes a quantile.
func quantileUs(ns []float64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	return percentile(sortedCopy(ns), q) / 1e3
}

// layers reports the per-layer metrics of a traced phase.
func (r *result) layers(w *workload, st *stack, tr *tracer, d *openLoop, ph *phase, c0, c1 layerCounts, wall time.Duration, replay []recross.Sample) {
	var qw, tot []float64
	var batchSum, answered int64
	var gather []float64
	for i := ph.first; i < ph.first+ph.n(); i++ {
		if d.state[i] != stOK {
			continue
		}
		answered++
		rs := d.res[i]
		qw = append(qw, float64(rs.queueNs))
		tot = append(tot, float64(rs.totalNs))
		batchSum += int64(rs.batch)
		if rt := &tr.reqs[i]; rt.routeNs > 0 {
			g := rt.routeNs - rt.maxSubNs.Load()
			if g < 0 {
				g = 0
			}
			gather = append(gather, float64(g))
		}
	}

	// serve
	servers := st.servers()
	var formP50, qwP50 float64
	for _, srv := range servers {
		s := srv.Metrics().Snapshot()
		formP50 += s.BatchForm.P50 / 1e3 / float64(len(servers))
		qwP50 += s.QueueWait.P50 / 1e3 / float64(len(servers))
	}
	if st.cs == nil {
		r.add("serve.queue_wait_p50_us", "us", quantileUs(qw, 0.5))
		r.add("serve.batch_size_mean", "count", ratio(batchSum, answered))
	} else {
		// The router's answers carry no queue wait or batch size: take
		// them from the peers.
		r.add("serve.queue_wait_p50_us", "us", qwP50)
		r.add("serve.batch_size_mean", "count", ratio(c1.batchSamples-c0.batchSamples, c1.batches-c0.batches))
	}
	r.add("serve.batch_form_p50_us", "us", formP50)
	r.add("serve.server_p50_us", "us", quantileUs(tot, 0.5))
	r.add("serve.shed", "count", float64(c1.shed-c0.shed))
	r.add("serve.retries", "count", float64(c1.retries-c0.retries))
	r.add("serve.degraded", "count", float64(c1.degraded-c0.degraded))

	// core, from the decorated replicas
	if c1.runs > c0.runs {
		tr.durMu.Lock()
		runs := append([]float64(nil), tr.runDur[c0.runDur:c1.runDur]...)
		tr.durMu.Unlock()
		systems := replicas
		if st.cs != nil {
			systems = clusterPeers
		}
		r.add("core.run_p50_us", "us", quantileUs(runs, 0.5))
		r.add("core.busy_frac", "fraction", float64(c1.runNs-c0.runNs)/(float64(systems)*float64(wall.Nanoseconds())))
		r.add("core.host_ns_per_sim_cycle", "ns/cycle", ratio(c1.runNs-c0.runNs, c1.simCycles-c0.simCycles))
	}

	// embedding
	r.add("embedding.reduce_p50_us", "us", reduceReplay(servers[0].Layer(), replay))
	r.add("embedding.row_cache_hit_ratio", "fraction", ratio(c1.cacheHits-c0.cacheHits, c1.cacheHits-c0.cacheHits+c1.cacheMisses-c0.cacheMisses))

	// coldstore
	tr.durMu.Lock()
	reads := append([]float64(nil), tr.readNs[c0.readNs:c1.readNs]...)
	subs := append([]float64(nil), tr.subNs[c0.subNs:c1.subNs]...)
	tr.durMu.Unlock()
	r.add("coldstore.read_p50_us", "us", quantileUs(reads, 0.5))
	r.add("coldstore.reads_per_lookup", "count", ratio(c1.coldReads-c0.coldReads, answered))
	r.add("coldstore.writes", "count", float64(c1.coldWrites-c0.coldWrites))

	// cluster
	r.add("cluster.subreq_p50_us", "us", quantileUs(subs, 0.5))
	r.add("cluster.subreq_p99_us", "us", quantileUs(subs, 0.99))
	r.add("cluster.fanout_mean", "count", ratio(c1.fanout-c0.fanout, c1.lookups-c0.lookups))
	r.add("cluster.gather_self_us", "us", quantileUs(gather, 0.5))
	r.add("cluster.wire_bytes_per_lookup", "bytes", ratio(c1.wireBytes-c0.wireBytes, c1.lookups-c0.lookups))
	r.add("cluster.hedged_frac", "fraction", ratio(c1.hedged-c0.hedged, c1.lookups-c0.lookups))
}

// Stages of a served lookup, in path order.
var stageNames = []string{
	"late",        // sender behind schedule
	"wire",        // client codec, loopback TCP, listener queue and codec
	"frontend",    // backend call outside Server.Lookup's own timing
	"queue_wait",  // Result.QueueWait
	"batch_form",  // dequeue to the start of the batch's System.Run
	"core_run",    // System.Run of the request's batch
	"after_run",   // functional reduce and answer after Run
	"gather_self", // router span minus its slowest sub-request
	"subreq",      // the slowest node sub-request
}

// stages attributes the client-observed median latency: over the
// requests between the 45th and 55th latency percentiles it averages
// each stage, and reports what the stages leave of the median as
// unattributed.
func (r *result) stages(w *workload, d *openLoop, tr *tracer, ph *phase) {
	var idx []int
	for i := ph.first; i < ph.first+ph.n(); i++ {
		if rt := &tr.reqs[i]; d.state[i] == stOK && (rt.routeNs > 0 || rt.runID != 0) {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return d.lat[idx[a]] < d.lat[idx[b]] })
	sum := map[string]float64{}
	var band []int
	if n := len(idx); n > 0 {
		band = idx[n*45/100 : n*55/100+1]
	}
	for _, i := range band {
		rt := &tr.reqs[i]
		add := func(k string, ns int64) { sum[k] += float64(ns) }
		backend := rt.outNs - rt.inNs
		add("late", d.late[i])
		add("wire", d.recvAt[i]-d.sentAt[i]-backend)
		if rt.routeNs > 0 {
			sub := rt.maxSubNs.Load()
			add("frontend", backend-rt.routeNs)
			add("gather_self", rt.routeNs-sub)
			add("subreq", sub)
			continue
		}
		q, total := d.res[i].queueNs, d.res[i].totalNs
		add("frontend", backend-total)
		add("queue_wait", q)
		add("batch_form", rt.runStart-(rt.inNs+q))
		add("core_run", rt.runEnd-rt.runStart)
		add("after_run", rt.inNs+total-rt.runEnd)
	}
	var lats []float64
	for _, i := range idx {
		lats = append(lats, float64(d.lat[i]))
	}
	p50 := quantileUs(lats, 0.5)
	acc := 0.0
	r.table = append(r.table, fmt.Sprintf("median request by stage (%s, %d requests in the p45-p55 band):", w.name, len(band)))
	for _, k := range stageNames {
		v := 0.0
		if len(band) > 0 {
			v = sum[k] / float64(len(band)) / 1e3
		}
		acc += v
		r.add("stage."+k+"_us", "us", v)
		if v != 0 {
			r.table = append(r.table, fmt.Sprintf("  %-12s %10.1f us  %5.1f%%", k, v, 100*v/p50))
		}
	}
	r.add("stage.client_p50_us", "us", p50)
	r.add("stage.unattributed_us", "us", p50-acc)
	r.table = append(r.table, fmt.Sprintf("  %-12s %10.1f us  %5.1f%%", "unattributed", p50-acc, 100*(p50-acc)/p50),
		fmt.Sprintf("  %-12s %10.1f us", "client p50", p50))
}
