package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"recross"
	"recross/internal/trace"
)

// pool holds every sample of a run in a few flat, pointer-free arrays, so
// a run's worth of pre-generated inputs adds almost no GC marking work.
// Sample i is materialized on demand; its index and weight slices alias
// the flat arrays and must not be modified.
type pool struct {
	sampleOp []int32 // sample i owns ops [sampleOp[i], sampleOp[i+1])
	opTable  []uint16
	opKind   []uint8
	opOff    []int32 // op k owns idx/w [opOff[k], opOff[k+1])
	idx      []int64
	w        []float32
}

func newPool() *pool { return &pool{sampleOp: []int32{0}, opOff: []int32{0}} }

func (p *pool) len() int { return len(p.sampleOp) - 1 }

func (p *pool) add(s recross.Sample) {
	for _, op := range s {
		p.opTable = append(p.opTable, uint16(op.Table))
		p.opKind = append(p.opKind, uint8(op.Kind))
		p.idx = append(p.idx, op.Indices...)
		p.w = append(p.w, op.Weights...)
		p.opOff = append(p.opOff, int32(len(p.idx)))
	}
	p.sampleOp = append(p.sampleOp, int32(len(p.opTable)))
}

// sample materializes sample i.
func (p *pool) sample(i int) recross.Sample {
	a, b := p.sampleOp[i], p.sampleOp[i+1]
	s := make(recross.Sample, b-a)
	for k := a; k < b; k++ {
		lo, hi := p.opOff[k], p.opOff[k+1]
		s[k-a] = recross.Op{
			Table:   int(p.opTable[k]),
			Kind:    trace.ReduceKind(p.opKind[k]),
			Indices: p.idx[lo:hi:hi],
			Weights: p.w[lo:hi:hi],
		}
	}
	return s
}

// fingerprint identifies a sample by its content, so a traced server-side
// span can name the client request it serves without any change to the
// wire.
func fingerprint(s recross.Sample) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, op := range s {
		put(uint64(op.Table)<<8 | uint64(op.Kind))
		for k, idx := range op.Indices {
			put(uint64(idx))
			put(uint64(math.Float32bits(op.Weights[k])))
		}
	}
	return h.Sum64()
}

// hashVectors folds an answer's vector bits (and shape) into 64 bits.
func hashVectors(vecs [][]float32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(len(vecs)))
	for _, v := range vecs {
		mix(uint64(len(v)))
		for _, x := range v {
			mix(uint64(math.Float32bits(x)))
		}
	}
	return h
}

// phase is one stretch of an open-loop schedule at a fixed rate: requests
// [first, first+len(due)) of the pool, request first+k due at due[k]
// after the phase starts.
type phase struct {
	name  string
	rate  float64
	dur   time.Duration
	first int
	due   []time.Duration
}

func (ph *phase) n() int { return len(ph.due) }

// poisson draws the arrival offsets of a Poisson process at rate per
// second over dur.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// inputs are a run's pre-generated samples and schedule.
type inputs struct {
	pool   *pool
	phases []*phase
	// sampleUs is the generator's mean cost per sample, measured while
	// pre-generating.
	sampleUs float64
}

// phaseSpec names a phase to generate: Poisson arrivals at rate for dur,
// or, with count set, count samples that are never scheduled.
type phaseSpec struct {
	name  string
	rate  float64
	dur   time.Duration
	count int
}

// generate draws the schedule and samples of every phase from seed. The
// same seed always gives the same inputs.
func generate(w *workload, seed int64, specs []phaseSpec) (*inputs, error) {
	gen, err := recross.NewGenerator(w.spec, seed)
	if err != nil {
		return nil, err
	}
	if w.tailMass > 0 {
		if err := gen.SetTailMass(w.tailMass); err != nil {
			return nil, err
		}
	}
	in := &inputs{pool: newPool()}
	next := 0
	for pi, ps := range specs {
		rng := rand.New(rand.NewSource(seed*7919 + int64(pi)*104729 + 1))
		ph := &phase{name: ps.name, rate: ps.rate, dur: ps.dur, first: next}
		if ps.count > 0 {
			ph.due = make([]time.Duration, ps.count)
		} else {
			ph.due = poisson(rng, ps.rate, ps.dur)
		}
		if ph.n() == 0 {
			return nil, fmt.Errorf("phase %s has no arrivals", ps.name)
		}
		next += ph.n()
		in.phases = append(in.phases, ph)
	}
	start := time.Now()
	for i := 0; i < next; i++ {
		in.pool.add(gen.Sample())
	}
	in.sampleUs = float64(time.Since(start).Nanoseconds()) / 1e3 / float64(next)
	return in, nil
}

// phase returns the named phase, or nil.
func (in *inputs) phase(name string) *phase {
	for _, ph := range in.phases {
		if ph.name == name {
			return ph
		}
	}
	return nil
}
