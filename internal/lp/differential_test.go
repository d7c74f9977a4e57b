package lp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameSolution reports the first difference between got and want, with
// every float compared by its bits.
func sameSolution(got, want Solution) error {
	if got.Status != want.Status {
		return fmt.Errorf("status %v, reference %v", got.Status, want.Status)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Errorf("objective %x, reference %x",
			math.Float64bits(got.Objective), math.Float64bits(want.Objective))
	}
	if len(got.X) != len(want.X) {
		return fmt.Errorf("len(X) %d, reference %d", len(got.X), len(want.X))
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			return fmt.Errorf("X[%d] %x, reference %x", j,
				math.Float64bits(got.X[j]), math.Float64bits(want.X[j]))
		}
	}
	return nil
}

// randomProblem draws an LP of up to 30 variables and 24 rows mixing
// LE/GE/EQ rows, zero and negative right-hand sides, and small integer
// coefficients, which make degenerate vertices and pricing ties common.
// Its zero density varies, so some tableaus stay sparse and others start
// or turn dense. Some draws are infeasible and some unbounded.
func randomProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(30)
	m := rng.Intn(25)
	zeros := []float64{0.25, 0.7, 0.9}[rng.Intn(3)]
	coef := func() float64 {
		switch {
		case rng.Float64() < zeros:
			return 0
		case rng.Intn(2) == 0:
			return float64(rng.Intn(7) - 3)
		default:
			return rng.NormFloat64() * 3
		}
	}
	p, _ := NewProblem(n)
	c := make([]float64, n)
	for j := range c {
		c[j] = coef()
	}
	p.SetObjective(c)
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = coef()
		}
		rhs := 0.0
		if rng.Intn(4) > 0 {
			rhs = float64(rng.Intn(12)-2) * (1 + rng.Float64())
		}
		rel := LE
		if r := rng.Intn(8); r >= 6 {
			rel = Relation(r - 5) // GE or EQ
		}
		p.AddConstraint(row, rel, rhs)
	}
	return p
}

// bealeProblem is Beale's cycling example with its rows permuted and k
// extra columns of large positive cost. Dantzig pricing cycles on many of
// these variants until blandAfter hands over to Bland's rule.
func bealeProblem(rng *rand.Rand, k int) *Problem {
	c := []float64{-0.75, 150, -0.02, 6}
	rows := [][]float64{
		{0.25, -60, -0.04, 9},
		{0.5, -90, -0.02, 3},
		{0, 0, 1, 0},
	}
	rhs := []float64{0, 0, 1}
	n := len(c) + k
	p, _ := NewProblem(n)
	obj := make([]float64, n)
	copy(obj, c)
	for j := len(c); j < n; j++ {
		obj[j] = 1000 + rng.Float64()
	}
	p.SetObjective(obj)
	for _, i := range rng.Perm(len(rows)) {
		row := make([]float64, n)
		copy(row, rows[i])
		for j := len(c); j < n; j++ {
			row[j] = rng.Float64()
		}
		p.AddConstraint(row, LE, rhs[i])
	}
	return p
}

// partitionSizedProblem builds a problem shaped like the real
// partitioning LP: 26 tables x 8 segments x 3 regions + t, with random
// loads and capacities.
func partitionSizedProblem(rng *rand.Rand) *Problem {
	const tables, segs, regs = 26, 8, 3
	n := tables*segs*regs + 1
	p, _ := NewProblem(n)
	obj := make([]float64, n)
	obj[n-1] = 1
	p.SetObjective(obj)
	xvar := func(t, s, r int) int { return (t*segs+s)*regs + r }
	for ti := 0; ti < tables; ti++ {
		for s := 0; s < segs; s++ {
			row := make([]float64, n)
			for r := 0; r < regs; r++ {
				row[xvar(ti, s, r)] = 1
			}
			p.AddConstraint(row, EQ, 1)
		}
	}
	for r := 0; r < regs; r++ {
		load := make([]float64, n)
		capRow := make([]float64, n)
		for ti := 0; ti < tables; ti++ {
			for s := 0; s < segs; s++ {
				load[xvar(ti, s, r)] = rng.Float64() * 10
				capRow[xvar(ti, s, r)] = rng.Float64()
			}
		}
		load[n-1] = -1
		p.AddConstraint(load, LE, 0)
		p.AddConstraint(capRow, LE, float64(tables*segs)*0.6)
	}
	return p
}

// TestSolveMatchesReference checks Solve against the original column-order,
// full-row-pivot solver bit for bit over seeded random problems, and that
// the draw covers every status and the Bland fallback.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20231017))
	statuses := map[Status]int{}
	bland := 0
	check := func(name string, p *Problem) {
		t.Helper()
		want, usedBland := referenceSolve(p)
		if err := sameSolution(Solve(p), want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		statuses[want.Status]++
		if usedBland {
			bland++
		}
	}
	for k := 0; k < 2000; k++ {
		check(fmt.Sprintf("random problem %d", k), randomProblem(rng))
	}
	for k := 0; k < 200; k++ {
		check(fmt.Sprintf("beale problem %d", k), bealeProblem(rng, k%4))
	}
	t.Logf("statuses %v, %d past blandAfter", statuses, bland)
	for _, s := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[s] < 20 {
			t.Errorf("only %d %v problems drawn", statuses[s], s)
		}
	}
	if bland < 50 {
		t.Errorf("only %d problems ran past blandAfter", bland)
	}
}

// TestSolveMatchesReferencePartitionSized runs the differential check on
// the problem BenchmarkSolvePartitionSized solves.
func TestSolveMatchesReferencePartitionSized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 3; k++ {
		p := partitionSizedProblem(rng)
		want, _ := referenceSolve(p)
		if want.Status != Optimal {
			t.Fatalf("problem %d: reference status %v", k, want.Status)
		}
		if err := sameSolution(Solve(p), want); err != nil {
			t.Fatalf("problem %d: %v", k, err)
		}
	}
}

// fuzzProblem decodes a small LP from data: a size byte, then one byte
// per objective and constraint coefficient, relation and right-hand side.
// A coefficient byte indexes small integers and halves, or with its top
// bit set takes the next eight bytes as a raw float64 (any bits, NaN and
// infinities included).
func fuzzProblem(data []byte) *Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	value := func() float64 {
		b := next()
		if b&0x80 != 0 && len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		return float64(int8(b<<1)) / 8
	}
	size := next()
	n := 1 + int(size&7)
	m := int(size>>3) & 7
	p, _ := NewProblem(n)
	c := make([]float64, n)
	for j := range c {
		c[j] = value()
	}
	p.SetObjective(c)
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = value()
		}
		rel := Relation(next() % 3)
		p.AddConstraint(row, rel, value())
	}
	return p
}

// FuzzSolve checks Solve against the reference solver bit for bit on
// decoded problems.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{0x11, 0x08, 0x10, 0x02, 0x04, 0x00, 0x10, 0x04, 0x06, 0x00, 0x08})
	f.Add([]byte{0x1a, 0xf0, 0xf8, 0x01, 0x7f, 0x02, 0x10, 0x03, 0x41, 0x08, 0x00, 0x01, 0x10, 0x7e, 0x02, 0x00})
	f.Add([]byte{0x3b, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x01, 0x02, 0x00})
	raw := []byte{0x09, 0x80}
	raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(math.Inf(1)))
	raw = append(raw, 0x08, 0x80)
	raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(1e300))
	raw = append(raw, 0x00, 0x10)
	f.Add(raw)
	// Found by fuzzing: problems whose Inf coefficients make a basic cost
	// and a pivot multiplier non-finite, where skipping zero columns
	// would drop the NaN that y*0 or f*0 contributes.
	f.Add([]byte("2\x80000000\xf0\x7f0A00\x802"))
	f.Add([]byte("20000\x7f00\xae0000000\x9a0\xe8000000\xae\x7f0100"))
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 8; k++ {
		seed := make([]byte, 64)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		want, _ := referenceSolve(p)
		if err := sameSolution(Solve(p), want); err != nil {
			t.Fatal(err)
		}
	})
}
