// Package lp is a small, dependency-free linear-programming solver: a
// two-phase primal simplex on a dense tableau with a Dantzig pivot rule and
// a Bland fallback against cycling. It substitutes for the Gurobi solver
// the paper uses for the bandwidth-aware partitioning LP of §4.3
// (DESIGN.md §3); the partitioning problems have at most a few thousand
// variables.
//
// The solver is fast because it skips work, never because it reorders
// arithmetic. Reduced costs are recomputed every iteration from the
// tableau, row by row over the rows with a non-zero basic cost, and only
// in each row's non-zero columns; pivots update only the pivot row's
// non-zero columns. Every stored value then has the same bits as in the
// straightforward column-by-column, full-row solver, up to the sign of a
// zero, which nothing reads, so Solve returns bit-identical Solutions and
// the placements built on them do not move. The differential tests hold
// Solve to that reference. Keeping a reduced-cost row updated
// incrementally across pivots was rejected: it rounds differently, can
// flip a near-tie between entering columns, and so changes the solution.
package lp

import (
	"fmt"
	"math"
)

// Relation is the sense of a constraint.
type Relation int

const (
	LE Relation = iota // <=
	GE                 // >=
	EQ                 // ==
)

// Status is the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Problem is a minimization LP over n nonnegative variables:
//
//	minimize c.x  subject to  A_i.x (<=|>=|==) b_i,  x >= 0.
type Problem struct {
	n    int
	c    []float64
	rows [][]float64
	rel  []Relation
	rhs  []float64
}

// NewProblem creates a problem with n variables and a zero objective.
func NewProblem(n int) (*Problem, error) {
	if n <= 0 {
		return nil, fmt.Errorf("lp: need at least one variable, got %d", n)
	}
	return &Problem{n: n, c: make([]float64, n)}, nil
}

// NumVars returns the variable count.
func (p *Problem) NumVars() int { return p.n }

// NumConstraints returns the constraint count.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// SetObjective sets the minimization coefficients (copied).
func (p *Problem) SetObjective(c []float64) error {
	if len(c) != p.n {
		return fmt.Errorf("lp: objective has %d coefficients, want %d", len(c), p.n)
	}
	copy(p.c, c)
	return nil
}

// AddConstraint appends coef.x rel rhs (coef copied).
func (p *Problem) AddConstraint(coef []float64, rel Relation, rhs float64) error {
	if len(coef) != p.n {
		return fmt.Errorf("lp: constraint has %d coefficients, want %d", len(coef), p.n)
	}
	row := make([]float64, p.n)
	copy(row, coef)
	p.rows = append(p.rows, row)
	p.rel = append(p.rel, rel)
	p.rhs = append(p.rhs, rhs)
	return nil
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const eps = 1e-9

// Solve runs the two-phase simplex and returns the solution.
func Solve(p *Problem) Solution {
	m := len(p.rows)
	if m == 0 {
		// Unconstrained: x = 0 is optimal for c >= 0, otherwise unbounded.
		for _, ci := range p.c {
			if ci < -eps {
				return Solution{Status: Unbounded}
			}
		}
		return Solution{Status: Optimal, X: make([]float64, p.n)}
	}

	// Build the standard-form tableau: variables, then one slack/surplus
	// per inequality, then artificials where needed.
	nSlack := 0
	for _, r := range p.rel {
		if r != EQ {
			nSlack++
		}
	}
	// Count artificials: GE and EQ rows always need one; LE rows with a
	// negative rhs flip into GE and need one too. Normalize first; the
	// rows themselves are negated as they are copied into the tableau.
	rel := make([]Relation, m)
	rhs := make([]float64, m)
	nArt := 0
	for i := range p.rows {
		rel[i] = p.rel[i]
		rhs[i] = p.rhs[i]
		if rhs[i] < 0 {
			rhs[i] = -rhs[i]
			switch rel[i] {
			case LE:
				rel[i] = GE
			case GE:
				rel[i] = LE
			}
		}
		if rel[i] != LE {
			nArt++
		}
	}

	total := p.n + nSlack + nArt
	t := newTableau(m, total)
	basis := make([]int, m)
	slackCol := p.n
	artCol := p.n + nSlack
	for i := 0; i < m; i++ {
		row := t.a[i]
		if p.rhs[i] < 0 {
			for j, v := range p.rows[i] {
				row[j] = -v
			}
		} else {
			copy(row, p.rows[i])
		}
		t.b[i] = rhs[i]
		switch rel[i] {
		case LE:
			row[slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		}
		t.reindex(i)
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		phase1 := make([]float64, total)
		for j := p.n + nSlack; j < total; j++ {
			phase1[j] = 1
		}
		status := t.optimize(phase1, basis)
		if status != Optimal {
			return Solution{Status: status}
		}
		if t.objective(phase1, basis) > 1e-6 {
			return Solution{Status: Infeasible}
		}
		// From here on no step reads an artificial column: they never
		// re-enter, and the ratio test and pivots read only the entering
		// column. Stop updating them.
		t.retire(p.n + nSlack)
		// Drive any artificial still in the basis out (degenerate rows).
		for i := 0; i < m; i++ {
			if basis[i] >= p.n+nSlack {
				pivoted := false
				for j := 0; j < p.n+nSlack; j++ {
					if math.Abs(t.a[i][j]) > eps {
						t.pivot(i, j, basis)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Redundant row: the artificial stays at zero;
					// harmless as long as it never re-enters, which
					// the phase-2 objective guarantees below.
					continue
				}
			}
		}
	}

	// Phase 2: original objective, artificials forbidden from entering.
	phase2 := make([]float64, total)
	copy(phase2, p.c)
	for j := p.n + nSlack; j < total; j++ {
		phase2[j] = math.Inf(1) // sentinel: optimize() skips these columns
	}
	status := t.optimize(phase2, basis)
	if status != Optimal {
		return Solution{Status: status}
	}

	x := make([]float64, p.n)
	for i, bj := range basis {
		if bj < p.n {
			x[bj] = t.b[i]
		}
	}
	obj := 0.0
	for j := 0; j < p.n; j++ {
		obj += p.c[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: obj}
}

// tableau is the dense simplex working state. Rows are views into one
// contiguous backing array. A row also keeps a list of the columns that
// may be non-zero, so pricing and pivots touch only those, until the list
// grows past a third of the live columns; then the row is treated as
// dense. The partitioning LP's tableau stays mostly zeros (about 14%
// non-zero at 266x1049) through both phases.
type tableau struct {
	m, n int
	// live is the count of leading columns still read; the artificial
	// columns past it are dead once phase 1 ends. Iteration limits use n.
	live int
	a    [][]float64
	b    []float64
	// nzc[i] lists, without duplicates, a superset of the columns
	// j < live with a[i][j] != 0; nil marks a dense row. pos[i][j] is
	// j's index in nzc[i], or -1.
	nzc [][]int32
	pos [][]int32
	// Scratch reused across iterations.
	y   []float64 // basic costs in row order
	red []float64 // reduced costs
}

func newTableau(m, n int) *tableau {
	t := &tableau{
		m: m, n: n, live: n,
		a: make([][]float64, m), b: make([]float64, m),
		nzc: make([][]int32, m), pos: make([][]int32, m),
		y: make([]float64, m), red: make([]float64, n),
	}
	backing := make([]float64, m*n)
	cols := make([]int32, m*n)
	pos := make([]int32, m*n)
	for i := range pos {
		pos[i] = -1
	}
	for i := range t.a {
		t.a[i] = backing[i*n : (i+1)*n : (i+1)*n]
		t.nzc[i] = cols[i*n : i*n : (i+1)*n]
		t.pos[i] = pos[i*n : (i+1)*n : (i+1)*n]
	}
	return t
}

// reindex rebuilds sparse row i's column list from the row.
func (t *tableau) reindex(i int) {
	list, pos := t.nzc[i], t.pos[i]
	for _, j := range list {
		pos[j] = -1
	}
	list = list[:0]
	for j, v := range t.a[i][:t.live] {
		if v != 0 {
			pos[j] = int32(len(list))
			list = append(list, int32(j))
		}
	}
	t.nzc[i] = list
	t.densify(i)
}

// densify marks row i dense once its list is too long to beat a
// contiguous pass.
func (t *tableau) densify(i int) {
	if len(t.nzc[i])*3 > t.live {
		t.nzc[i] = nil
	}
}

// retire stops reading and updating the columns from live on.
func (t *tableau) retire(live int) {
	t.live = live
	for i := range t.nzc {
		if t.nzc[i] != nil {
			t.reindex(i)
		}
	}
}

// finite reports whether v is neither infinite nor NaN. A zero column
// contributes v*0 to a sum, which is a signed zero for finite v and NaN
// otherwise, so only finite factors may skip zero columns.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// objective evaluates c over the current basic solution.
func (t *tableau) objective(c []float64, basis []int) float64 {
	v := 0.0
	for i, bj := range basis {
		if !math.IsInf(c[bj], 1) {
			v += c[bj] * t.b[i]
		}
	}
	return v
}

// optimize runs primal simplex iterations for objective c (minimize) from
// the current basis. Columns with +Inf cost never enter.
//
// Every iteration recomputes the reduced costs red_j = c_j - sum_i y_i a_ij
// from the tableau, row by row: red starts as c, rows whose basic cost y_i
// is zero are skipped, and each remaining row subtracts y_i a_ij from the
// columns where a_ij is non-zero. Each red_j still sees the same non-zero
// subtractions in the same ascending-i order as a column-by-column sum; a
// skipped term is a signed zero, which can change at most the sign of a
// zero red_j, and no comparison reads that. So the Dantzig and Bland
// choices do not depend on the loop order. Updating a reduced-cost row
// incrementally at each pivot would be cheaper still, but it rounds
// differently, can flip a near-tie between entering columns, and so would
// change the solution the partitioner places from.
func (t *tableau) optimize(c []float64, basis []int) Status {
	maxIter := 50 * (t.m + t.n)
	blandAfter := 10 * (t.m + t.n)

	y, red := t.y, t.red[:t.live]
	for iter := 0; iter < maxIter; iter++ {
		for i, bj := range basis {
			if math.IsInf(c[bj], 1) {
				y[i] = 0 // artificial stuck at zero in a redundant row
			} else {
				y[i] = c[bj]
			}
		}
		copy(red, c)
		for i, yi := range y {
			if yi == 0 {
				continue
			}
			row := t.a[i][:len(red)]
			if t.nzc[i] == nil || !finite(yi) {
				for j, v := range row {
					red[j] -= yi * v
				}
				continue
			}
			for _, j := range t.nzc[i] {
				red[j] -= yi * row[j]
			}
		}
		// Entering column.
		enter := -1
		best := -eps
		for j, rj := range red {
			if math.IsInf(c[j], 1) {
				continue
			}
			if iter >= blandAfter {
				// Bland: first improving column.
				if rj < -eps {
					enter = j
					break
				}
			} else if rj < best {
				best = rj
				enter = j
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Leaving row: min ratio test (Bland ties by smallest basis index).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > eps {
				ratio := t.b[i] / t.a[i][enter]
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && leave >= 0 && basis[i] < basis[leave]) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter, basis)
	}
	return IterationLimit
}

// pivot makes column enter basic in row leave. A sparse pivot row is
// scaled and subtracted only in its listed columns: elsewhere the full
// update would compute 0*inv or a_ij - f*0, which equal what is stored
// except possibly in the sign of a zero, and no comparison, ratio or
// solution value reads that sign. A non-finite multiplier f makes f*0
// NaN, so such a row takes the full update.
func (t *tableau) pivot(leave, enter int, basis []int) {
	prow := t.a[leave][:t.live]
	inv := 1 / prow[enter]
	nz := t.nzc[leave]
	if nz == nil {
		for j := range prow {
			prow[j] *= inv
		}
	} else {
		for _, j := range nz {
			prow[j] *= inv
		}
	}
	t.b[leave] *= inv
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		row := t.a[i][:len(prow)]
		f := row[enter]
		if f == 0 {
			continue
		}
		list := t.nzc[i]
		switch {
		case nz == nil || !finite(f):
			for j, v := range prow {
				row[j] -= f * v
			}
			t.nzc[i] = nil
		case list == nil:
			for _, j := range nz {
				row[j] -= f * prow[j]
			}
		default:
			pos := t.pos[i]
			for _, j := range nz {
				row[j] -= f * prow[j]
				if pos[j] < 0 {
					pos[j] = int32(len(list))
					list = append(list, j)
				}
			}
			// The entering column usually cancels exactly; unlist it so
			// the lists do not fill up with zeros.
			if row[enter] == 0 {
				k, last := pos[enter], list[len(list)-1]
				list[k], pos[last] = last, k
				list, pos[enter] = list[:len(list)-1], -1
			}
			t.nzc[i] = list
			t.densify(i)
		}
		t.b[i] -= f * t.b[leave]
		if t.b[i] < 0 && t.b[i] > -1e-12 {
			t.b[i] = 0
		}
	}
	basis[leave] = enter
}
