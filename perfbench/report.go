package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"recross"
)

// checkAnswers recomputes every answered request on an independent
// reference layer (NewLayer, at the served precision) and compares the
// vector-bit hashes the client took during the run. Mismatches become
// failures and make the run incorrect. It also fills attempted/failed.
func (r *result) checkAnswers(w *workload, in *inputs, d *openLoop) {
	ref, err := recross.NewLayer(w.spec)
	if err == nil && w.cfg.Precision != recross.FP32 {
		err = ref.SetPrecision(w.cfg.Precision)
	}
	if err != nil {
		r.invalid("reference layer: " + err.Error())
		return
	}
	n := in.pool.len()
	const workers = 2
	var wg sync.WaitGroup
	wrong := make([]int, workers)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += workers {
				if d.state[i] != stOK {
					continue
				}
				want, err := ref.ReduceSample(in.pool.sample(i))
				if err != nil || hashVectors(want) != d.hash[i] {
					d.state[i] = stWrong
					wrong[k]++
				}
			}
		}(k)
	}
	wg.Wait()
	bad := wrong[0] + wrong[1]
	for i := 0; i < n; i++ {
		if d.sentAt[i] == 0 {
			continue // never sent: the ladder stopped before its rung
		}
		r.attempted++
		if d.state[i] != stOK {
			r.failed++
		}
	}
	if bad > 0 {
		r.invalid(fmt.Sprintf("%d answers differ from the reference layer", bad))
	}
	r.table = append(r.table, fmt.Sprintf("answers checked against the reference layer: %d sent, %d wrong, %d failed in all", r.attempted, bad, r.failed))
}

// latency reports a phase's p50, p95 and p99 from due time. Failed
// requests count as +Inf, which a reported percentile caps at the client
// timeout.
func (r *result) latency(prefix string, s stepStats) {
	sorted := sortedCopy(s.Latencies)
	capMs := float64(clientTimeout.Milliseconds())
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.5}, {"p95_ms", 0.95}, {"p99_ms", 0.99}} {
		v := percentile(sorted, q.q)
		if math.IsInf(v, 1) || math.IsNaN(v) {
			r.notes = append(r.notes, fmt.Sprintf("%s%s is beyond the %v client timeout", prefix, q.name, clientTimeout))
			v = capMs
		}
		r.add(prefix+q.name, "ms", v)
	}
	if !supported(len(sorted), 0.99) {
		r.notes = append(r.notes, fmt.Sprintf("%sp99_ms rests on %d samples, fewer than ten beyond it", prefix, len(sorted)))
	}
	r.table = append(r.table, fmt.Sprintf("%slatency at %.0f req/s: n=%d answered=%d failed=%d", prefix, s.Rate, s.Sent, s.Answered, s.Failed))
}

// ladder reports max_rate_rps: the measured throughput of the highest
// rung that passed before the first failing one.
func (r *result) ladder(w *workload, steps []stepStats) {
	best := maxRate(steps, w.limits)
	for k, s := range steps {
		ok, why := w.limits.verdict(s)
		verdict := "pass"
		if !ok {
			verdict = "fail: " + why
		}
		r.table = append(r.table, fmt.Sprintf("rung %2d %6.0f req/s: sent=%d failed=%d p99=%.2fms backlog %.0f->%.0f %s",
			k, s.Rate, s.Sent, s.Failed, percentile(sortedCopy(s.Latencies), 0.99), s.BacklogStart, s.BacklogEnd, verdict))
	}
	v := 0.0
	if best >= 0 {
		v = achievedRate(steps[best])
	} else {
		r.notes = append(r.notes, "the lowest ladder rung failed")
	}
	r.add("max_rate_rps", "1/s", v)
}

// setup reports set-up time: the median over the run's set-ups.
func (r *result) setup(setups []setupTimes) {
	var tot []float64
	for _, s := range setups {
		tot = append(tot, s.total())
	}
	r.add("setup_s", "s", median(tot))
}

// setupParts reports set-up split into profiling, construction and
// first answer, and the generator's cost per sample.
func (r *result) setupParts(setups []setupTimes, in *inputs) {
	var prof, build, first []float64
	for _, s := range setups {
		prof = append(prof, s.profile)
		build = append(build, s.build)
		first = append(first, s.first)
	}
	r.add("setup.profile_s", "s", median(prof))
	r.add("setup.build_s", "s", median(build))
	r.add("setup.first_answer_s", "s", median(first))
	r.add("trace.sample_us", "us", in.sampleUs)
}

// lateness checks the sender kept its schedule at the nominal rate.
func (r *result) lateness(d *openLoop, ph *phase) float64 {
	p99 := percentile(d.lateMs(ph), 0.99)
	if p99 > lateLimitMs {
		r.invalid(fmt.Sprintf("sender p99 lateness %.1f ms exceeds %d ms: the load generator set the pace", p99, lateLimitMs))
	}
	return p99
}

// ---- traced run ----

// layerCounts is a point-in-time copy of the counters a traced phase is
// measured between.
type layerCounts struct {
	runs, runNs, simCycles int64
	coldReads, coldWrites  int64
	wireBytes, lookups     int64
	hedged, fanout         int64
	runDur, readNs, subNs  int
	shed, retries          int64
	degraded               int64
	batches, batchSamples  int64
	cacheHits, cacheMisses int64
}

func snapCounts(tr *tracer, st *stack) layerCounts {
	c := layerCounts{
		runs: tr.runs.Load(), runNs: tr.runNs.Load(), simCycles: tr.simCycles.Load(),
		coldReads: tr.coldReads.Load(), coldWrites: tr.coldWrites.Load(),
		wireBytes: tr.wireBytes.Load(), lookups: tr.lookups.Load(),
		hedged: tr.hedged.Load(), fanout: tr.fanout.Load(),
	}
	// The decorators write reqTrace fields before they release mu or ptrMu;
	// taking both here orders those writes before the reads that follow.
	tr.mu.Lock()
	tr.ptrMu.Lock()
	tr.durMu.Lock()
	c.runDur, c.readNs, c.subNs = len(tr.runDur), len(tr.readNs), len(tr.subNs)
	tr.durMu.Unlock()
	tr.ptrMu.Unlock()
	tr.mu.Unlock()
	for _, srv := range st.servers() {
		s := srv.Metrics().Snapshot()
		c.shed += s.Shed
		c.retries += s.Retries
		c.degraded += s.Degraded
		c.batches += s.Batches
		c.batchSamples += s.BatchSamples
		if rc := srv.RowCache(); rc != nil {
			rs := rc.Stats()
			c.cacheHits += rs.Hits
			c.cacheMisses += rs.Misses
		}
	}
	return c
}

// traced is the per-layer run: an untraced stretch at the nominal rate,
// then as long a stretch against the traced build of the same servers.
// Each takes half of an untraced run's nominal phase.
func (r *runner) traced() (*result, error) {
	w := r.w
	half := r.nominalDur() / 2
	specs := []phaseSpec{
		{name: "warm", rate: w.rate, dur: w.warm}, {name: "untraced", rate: w.rate, dur: half},
		{name: "warmnominal", rate: w.rate, dur: w.warm}, {name: "nominal", rate: w.rate, dur: half},
	}
	if w.prefix > 0 {
		specs = append(specs, phaseSpec{name: "prefix", count: w.prefix})
	}
	in, err := generate(w, r.seed, specs)
	if err != nil {
		return nil, err
	}
	replay, err := replaySamples(w, 256)
	if err != nil {
		return nil, err
	}
	dir, err := coldDir(r.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	first := in.pool.sample(0)
	st, setups, err := r.setup(first, dir)
	if err != nil {
		return nil, err
	}
	st.warmPrefix(in)
	base := time.Now()
	d := newOpenLoop(in, st.client, clientTimeout, base)
	unt := in.phase("untraced")
	d.run(in.phase("warm"))
	d.drain(drainMax)
	runtime.GC()
	uinflight := d.run(unt)
	d.drain(drainMax)
	st.close()

	tr := newTracer(base, in.pool)
	st, _, err = build(w, first, dir, tr)
	if err != nil {
		return nil, err
	}
	st.warmPrefix(in)
	d.c = st.client
	nom := in.phase("nominal")
	d.run(in.phase("warmnominal"))
	d.drain(drainMax)
	runtime.GC()
	c0 := snapCounts(tr, st)
	t0 := time.Now()
	inflight := d.run(nom)
	d.drain(drainMax)
	wall := time.Since(t0)
	c1 := snapCounts(tr, st)

	res := newResult()
	res.layers(w, st, tr, d, nom, c0, c1, wall, replay)
	expo := st.servers()[0].Handler()
	res.add("coldstore.retries", "count", expoValue(expo, "recross_coldstore_retries_total"))
	res.add("coldstore.checksum_failures", "count", expoValue(expo, "recross_coldstore_checksum_failures_total"))
	cycles, err := simReplay(w, st.cfg, maxBatch, replayBatches)
	if err != nil {
		return nil, err
	}
	res.add("core.sim_cycles_per_batch", "cycles", cycles)
	var tracker *recross.FreqTracker
	if st.cs != nil {
		tracker = st.cs.Tracker
	}
	res.add("adapt.observe_ns_per_lookup", "ns", observeReplay(tracker, replay))
	st.close()
	d.wg.Wait()

	tr.clientSpans(d, nom)
	spans := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, r.seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, "spans written to "+spans)

	res.checkAnswers(w, in, d)
	us := d.stats(unt, uinflight)
	ts := d.stats(nom, inflight)
	res.latency("untraced.", us)
	res.latency("traced.", ts)
	res.add("trace.overhead_p50_ms", "ms", res.metrics["traced.p50_ms"].Value-res.metrics["untraced.p50_ms"].Value)
	res.add("trace.overhead_p95_ms", "ms", res.metrics["traced.p95_ms"].Value-res.metrics["untraced.p95_ms"].Value)
	res.add("failed_frac", "fraction", float64(us.Failed+ts.Failed)/float64(us.Sent+ts.Sent))
	res.setupParts(setups, in)
	res.add("loadgen.late_p99_ms", "ms", res.lateness(d, nom))
	res.stages(w, d, tr, nom)
	return res, nil
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
