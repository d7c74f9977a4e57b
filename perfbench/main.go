// Command perfbench is the serving benchmark. It stands one workload up
// in-process, drives it open-loop through the binary front end with
// Poisson arrivals pre-generated from a seed, checks every answer against
// an independent reference layer, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones: set-up time, p50
// latency at the workload's nominal rate (timed from each request's due
// time), the highest rung of a fixed rate ladder that meets the latency
// and failure limits without a growing backlog, the share of requests
// answered correctly, and peak Go heap over the nominal stretch. With
// -trace 1 a separate traced run records spans around each layer's public
// functions and seams and reports per-layer metrics, a stage breakdown of
// the median request, and its own latency against an untraced stretch of
// the same length (the tracing overhead).
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload dram --seed 1 --seconds 20 --trace 0
//
// Workloads: dram, cold, cluster (see workloads.go).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"recross"
)

// Run shape.
const (
	rungDur       = time.Second     // one ladder rung
	clientTimeout = 5 * time.Second // a request unanswered this long failed
	drainMax      = clientTimeout + time.Second
	setupReps     = 5 // set-ups per run; setup_s is their median
	// lateLimitMs marks a run invalid: when the sender's p99 lateness at
	// the nominal rate exceeds it, the generator, not the server, set the
	// pace.
	lateLimitMs = 20
)

func main() {
	name := flag.String("workload", "", "workload: dram, cold or cluster")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	root := flag.String("root", ".", "repository root; outputs go under its .bench_build/")
	commit := flag.String("commit", "unknown", "commit of the sources, recorded in the result")
	flag.Parse()

	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload dram|cold|cluster --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &runner{w: w, seed: *seed, secs: *seconds, root: *root, out: filepath.Join(*root, ".bench_build", "perfbench")}
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		fail(err)
	}
	env := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": *commit, "source_sha256": sourceDigest(*root),
	}
	var res *result
	var err error
	if *traced == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fail(err)
	}
	declared := endToEnd
	if *traced == 1 {
		declared = perLayer
	}
	res.print(os.Stdout, env)
	path := filepath.Join(r.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *traced))
	if err := res.save(path, env); err != nil {
		fail(err)
	}
	line, err := res.line(declared)
	if err != nil {
		fail(err)
	}
	fmt.Println(line)
}

// decl is a metric BENCHMARK.json declares.
type decl struct{ name, unit string }

// endToEnd are the metrics of an untraced run, perLayer those of a traced
// one; the result line carries exactly these, as BENCHMARK.json lists them.
var endToEnd = []decl{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"max_rate_rps", "1/s"},
	{"answered_frac", "fraction"}, {"heap_mib", "MiB"},
}

var perLayer = []decl{
	{"serve.queue_wait_p50_us", "us"}, {"serve.batch_size_mean", "count"},
	{"serve.batch_form_p50_us", "us"}, {"serve.server_p50_us", "us"},
	{"serve.shed", "count"}, {"serve.retries", "count"}, {"serve.degraded", "count"},
	{"core.run_p50_us", "us"}, {"core.busy_frac", "fraction"},
	{"core.host_ns_per_sim_cycle", "ns/cycle"}, {"core.sim_cycles_per_batch", "cycles"},
	{"embedding.reduce_p50_us", "us"}, {"embedding.row_cache_hit_ratio", "fraction"},
	{"coldstore.read_p50_us", "us"}, {"coldstore.reads_per_lookup", "count"},
	{"coldstore.writes", "count"}, {"coldstore.retries", "count"},
	{"coldstore.checksum_failures", "count"},
	{"cluster.subreq_p50_us", "us"}, {"cluster.subreq_p99_us", "us"},
	{"cluster.fanout_mean", "count"}, {"cluster.gather_self_us", "us"},
	{"cluster.wire_bytes_per_lookup", "bytes"}, {"cluster.hedged_frac", "fraction"},
	{"setup.profile_s", "s"}, {"setup.build_s", "s"}, {"setup.first_answer_s", "s"},
	{"trace.sample_us", "us"}, {"loadgen.late_p99_ms", "ms"}, {"failed_frac", "fraction"},
	{"stage.late_us", "us"}, {"stage.wire_us", "us"}, {"stage.frontend_us", "us"},
	{"stage.queue_wait_us", "us"}, {"stage.batch_form_us", "us"}, {"stage.core_run_us", "us"},
	{"stage.after_run_us", "us"}, {"stage.gather_self_us", "us"},
	{"stage.subreq_us", "us"}, {"stage.client_p50_us", "us"}, {"stage.unattributed_us", "us"},
	{"untraced.p50_ms", "ms"}, {"untraced.p95_ms", "ms"}, {"untraced.p99_ms", "ms"},
	{"traced.p50_ms", "ms"}, {"traced.p95_ms", "ms"}, {"traced.p99_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"}, {"trace.overhead_p95_ms", "ms"},
	{"adapt.observe_ns_per_lookup", "ns"},
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runner holds one invocation's settings.
type runner struct {
	w    *workload
	seed int64
	secs int
	root string
	out  string
}

// nominalDur is the measured stretch at the nominal rate; the rest of the
// run's seconds go to the ladder.
func (r *runner) nominalDur() time.Duration {
	return time.Duration(r.secs) * time.Second * 17 / 30
}

// setup builds the workload setupReps times, closing all but the last
// build, and returns the last stack with every build's times.
func (r *runner) setup(first recross.Sample, dir string) (*stack, []setupTimes, error) {
	var all []setupTimes
	var st *stack
	for k := 0; k < setupReps; k++ {
		if st != nil {
			st.close()
		}
		var t setupTimes
		var err error
		runtime.GC()
		st, t, err = build(r.w, first, dir, nil)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, t)
	}
	return st, all, nil
}

// untraced is the end-to-end run.
func (r *runner) untraced() (*result, error) {
	w := r.w
	specs := []phaseSpec{{name: "warm", rate: w.rate, dur: w.warm}, {name: "nominal", rate: w.rate, dur: r.nominalDur()}}
	rungs := int((time.Duration(r.secs)*time.Second - r.nominalDur()) / rungDur)
	if rungs > len(w.ladder) {
		rungs = len(w.ladder)
	}
	if rungs < 1 {
		rungs = 1
	}
	for k := 0; k < rungs; k++ {
		for a := 0; a < 2; a++ {
			specs = append(specs, phaseSpec{name: rungName(k, a), rate: w.ladder[k], dur: rungDur})
		}
	}
	if w.prefix > 0 {
		specs = append(specs, phaseSpec{name: "prefix", count: w.prefix})
	}
	in, err := generate(w, r.seed, specs)
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
	d := newOpenLoop(in, st.client, clientTimeout, time.Now())
	nom := in.phase("nominal")

	d.run(in.phase("warm"))
	d.drain(drainMax)
	// Each measured stretch starts from a collected heap, so whether a GC
	// cycle falls inside it does not depend on what set-up left behind.
	runtime.GC()
	heap := startHeapSampler()
	nomInflight := d.run(nom)
	d.drain(drainMax)
	peak := heap.stop()
	runtime.GC()

	// last keeps the final attempt at each rung: its phase and in-flight
	// samples.
	type attempt struct {
		ph       *phase
		inflight []int
	}
	var last []attempt
	climb(rungs, w.limits, func(k, a int) stepStats {
		ph := in.phase(rungName(k, a))
		inflight := d.run(ph)
		d.drain(drainMax)
		last = append(last[:k], attempt{ph, inflight})
		return d.stats(ph, inflight)
	})
	st.close()
	d.wg.Wait()

	res := newResult()
	res.checkAnswers(w, in, d)
	ns := d.stats(nom, nomInflight)
	res.latency("", ns)
	// The verdicts again, now that wrong answers count as failed.
	var steps []stepStats
	for _, a := range last {
		steps = append(steps, d.stats(a.ph, a.inflight))
	}
	res.ladder(w, steps)
	res.setup(setups)
	res.add("answered_frac", "fraction", float64(ns.Answered)/float64(ns.Sent))
	res.add("heap_mib", "MiB", float64(peak)/(1<<20))
	res.lateness(d, nom)
	return res, nil
}

// rungName names attempt a (0 or 1) at ladder rung k.
func rungName(k, a int) string {
	if a == 0 {
		return fmt.Sprintf("rung%d", k)
	}
	return fmt.Sprintf("retry%d", k)
}

// heapSampler tracks peak Go heap in use.
type heapSampler struct {
	stopCh chan struct{}
	done   chan struct{}
	peak   atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopCh)
	<-h.done
	return h.peak.Load()
}

// sourceDigest hashes the repository's Go sources and module files, so a
// result names the code it measured even where no commit is recorded.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && p != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's verdict and metrics.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	notes             []string
	table             []string
}

func newResult() *result { return &result{correct: true, metrics: map[string]metric{}} }

func (r *result) add(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) invalid(why string) {
	r.correct = false
	r.notes = append(r.notes, why)
}

// line renders the result line with exactly the declared metrics.
func (r *result) line(declared []decl) (string, error) {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		m, ok := r.metrics[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	return string(b), err
}

func (r *result) print(w io.Writer, env map[string]any) {
	b, _ := json.Marshal(map[string]any{"env": env})
	fmt.Fprintln(w, string(b))
	for _, l := range r.table {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
}

func (r *result) save(path string, env map[string]any) error {
	b, err := json.MarshalIndent(map[string]any{
		"env": env, "correct": r.correct, "attempted": r.attempted, "failed": r.failed,
		"metrics": r.metrics, "notes": r.notes, "stages": r.table,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
