package ilp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseLU is the reference the factor is checked against: Gaussian
// elimination with partial pivoting on a full row-major copy of B.
type denseLU struct {
	m    int
	a    []float64 // packed L\U, row-major
	perm []int     // row i of the factors is row perm[i] of B
}

// newDenseLU factors the basis matrix whose column c is cols[basis[c]].
// ok is false when a pivot column is zero to rounding.
func newDenseLU(m int, cols []spCol, basis []int32) (d *denseLU, ok bool) {
	d = &denseLU{m: m, a: make([]float64, m*m), perm: make([]int, m)}
	for c, bj := range basis {
		for k, r := range cols[bj].ind {
			d.a[int(r)*m+c] = cols[bj].val[k]
		}
	}
	for i := range d.perm {
		d.perm[i] = i
	}
	for c := 0; c < m; c++ {
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(d.a[r*m+c]) > math.Abs(d.a[p*m+c]) {
				p = r
			}
		}
		if math.Abs(d.a[p*m+c]) < 1e-13 {
			return d, false
		}
		if p != c {
			for k := 0; k < m; k++ {
				d.a[c*m+k], d.a[p*m+k] = d.a[p*m+k], d.a[c*m+k]
			}
			d.perm[c], d.perm[p] = d.perm[p], d.perm[c]
		}
		for r := c + 1; r < m; r++ {
			f := d.a[r*m+c] / d.a[c*m+c]
			if f == 0 {
				continue
			}
			d.a[r*m+c] = f
			for k := c + 1; k < m; k++ {
				d.a[r*m+k] -= f * d.a[c*m+k]
			}
		}
	}
	return d, true
}

// solve returns x with B·x = rhs (rhs by row, x by basis position).
func (d *denseLU) solve(rhs []float64) []float64 {
	m := d.m
	x := make([]float64, m)
	for i := 0; i < m; i++ {
		v := rhs[d.perm[i]]
		for k := 0; k < i; k++ {
			v -= d.a[i*m+k] * x[k]
		}
		x[i] = v
	}
	for i := m - 1; i >= 0; i-- {
		v := x[i]
		for k := i + 1; k < m; k++ {
			v -= d.a[i*m+k] * x[k]
		}
		x[i] = v / d.a[i*m+i]
	}
	return x
}

// solveT returns y with yᵀ·B = cᵀ (c by basis position, y by row).
func (d *denseLU) solveT(c []float64) []float64 {
	m := d.m
	z := make([]float64, m)
	for i := 0; i < m; i++ {
		v := c[i]
		for k := 0; k < i; k++ {
			v -= d.a[k*m+i] * z[k]
		}
		z[i] = v / d.a[i*m+i]
	}
	for i := m - 1; i >= 0; i-- {
		v := z[i]
		for k := i + 1; k < m; k++ {
			v -= d.a[k*m+i] * z[k]
		}
		z[i] = v
	}
	y := make([]float64, m)
	for i, p := range d.perm {
		y[p] = z[i]
	}
	return y
}

// closeVec reports whether got matches want to 1e-9 of want's scale,
// and the first index where it does not.
func closeVec(got, want []float64) (int, bool) {
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if !(math.Abs(got[i]-want[i]) <= 1e-9*scale) { // also catches NaN
			return i, false
		}
	}
	return 0, true
}

// randomBasis draws m columns the way this solver's bases look: unit
// slacks (a share drawn per basis, so that some draws peel completely
// and others leave a large nucleus) and columns of two to five entries
// of mixed magnitude. Basic
// column i has an entry of order one in row perm[i], which makes the
// basis structurally (and nearly always numerically) regular. The second
// result is every column drawn, basic ones first; the rest are the pool
// updates enter from.
func randomBasis(rng *rand.Rand, m int) (basis []int32, cols []spCol) {
	sparseCol := func(home int) spCol {
		rows := map[int32]float64{}
		if home >= 0 {
			rows[int32(home)] = 0.5 + rng.Float64()
		}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			r := int32(rng.Intn(m))
			if _, dup := rows[r]; !dup {
				rows[r] = (0.05 + rng.Float64()) * math.Pow(10, float64(-rng.Intn(3)))
			}
		}
		var c spCol
		for r := int32(0); int(r) < m; r++ { // ascending rows, as lowerModel builds them
			if v, ok := rows[r]; ok {
				if rng.Intn(2) == 0 {
					v = -v
				}
				c.ind = append(c.ind, r)
				c.val = append(c.val, v)
			}
		}
		return c
	}
	perm := rng.Perm(m)
	slackShare := 0.1 + 0.7*rng.Float64()
	for i := 0; i < m; i++ {
		if rng.Float64() < slackShare {
			cols = append(cols, spCol{ind: []int32{int32(perm[i])}, val: []float64{1}})
		} else {
			cols = append(cols, sparseCol(perm[i]))
		}
		basis = append(basis, int32(i))
	}
	for i := 0; i < 2*m; i++ {
		cols = append(cols, sparseCol(-1))
	}
	return basis, cols
}

// regularBasis redraws until the reference elimination accepts the
// basis.
func regularBasis(rng *rand.Rand, m int) (basis []int32, cols []spCol) {
	for {
		basis, cols = randomBasis(rng, m)
		if _, ok := newDenseLU(m, cols, basis); ok {
			return basis, cols
		}
	}
}

func scatter(m int, col *spCol) []float64 {
	a := make([]float64, m)
	for k, r := range col.ind {
		a[r] = col.val[k]
	}
	return a
}

// checkSolves compares ftran of every given column and btran of a few
// unit and dense vectors against the dense reference.
func checkSolves(t *testing.T, f *basisFactor, cols []spCol, basis []int32, rhs []spCol, rng *rand.Rand) {
	t.Helper()
	m := f.m
	ref, ok := newDenseLU(m, cols, basis)
	if !ok {
		t.Fatal("reference elimination found the basis singular")
	}
	x := make([]float64, m)
	for i := range rhs {
		a := scatter(m, &rhs[i])
		want := ref.solve(a)
		f.ftran(a, x, false)
		if k, ok := closeVec(x, want); !ok {
			t.Fatalf("ftran of column %d: x[%d] = %g, reference %g", i, k, x[k], want[k])
		}
		for r, v := range a {
			if v != 0 {
				t.Fatalf("ftran left %g in its input at row %d", v, r)
			}
		}
	}
	y := make([]float64, m)
	for trial := 0; trial < 8; trial++ {
		c := make([]float64, m)
		if trial%2 == 0 {
			c[rng.Intn(m)] = 1
		} else {
			for i := range c {
				if rng.Intn(3) == 0 {
					c[i] = rng.NormFloat64()
				}
			}
		}
		want := ref.solveT(c)
		f.btran(c, y)
		if k, ok := closeVec(y, want); !ok {
			t.Fatalf("btran trial %d: y[%d] = %g, reference %g", trial, k, y[k], want[k])
		}
		for p, v := range c {
			if v != 0 {
				t.Fatalf("btran left %g in its input at position %d", v, p)
			}
		}
	}
}

// randomUpdates replaces n basis columns with pool columns through
// ftran + update, each at the position where the entering column's
// ftran is largest (a pivot any ratio test would accept), and returns
// how many it made.
func randomUpdates(t *testing.T, f *basisFactor, cols []spCol, basis []int32, rng *rand.Rand, n int) int {
	t.Helper()
	m := f.m
	inBasis := make(map[int32]bool, m)
	for _, bj := range basis {
		inBasis[bj] = true
	}
	w := make([]float64, m)
	made := 0
	for tries := 0; made < n && tries < 20*n; tries++ {
		q := int32(rng.Intn(len(cols)))
		if inBasis[q] {
			continue
		}
		f.ftran(scatter(m, &cols[q]), w, true)
		p, big := 0, 0.0
		for i, v := range w {
			if math.Abs(v) > big {
				p, big = i, math.Abs(v)
			}
		}
		if big < 0.05 {
			continue
		}
		if !f.update(p, w[p]) {
			t.Fatalf("update %d refused a pivot of %g", made, w[p])
		}
		delete(inBasis, basis[p])
		basis[p] = q
		inBasis[q] = true
		made++
	}
	return made
}

func TestFactorMatchesDenseOnRandomBases(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + rng.Intn(90)
		basis, cols := randomBasis(rng, m)
		f := newBasisFactor(m)
		err := f.refactor(cols, basis)
		if _, ok := newDenseLU(m, cols, basis); !ok {
			if !errors.Is(err, errSingularBasis) {
				t.Fatalf("seed %d: reference says singular, factor says %v", seed, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d (m=%d): %v", seed, m, err)
		}
		checkSolves(t, &f, cols, basis, cols[m:2*m], rng)
	}
}

func TestFactorUpdatesMatchRefactor(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 10 + rng.Intn(80)
		basis, cols := regularBasis(rng, m)
		f := newBasisFactor(m)
		if err := f.refactor(cols, basis); err != nil {
			t.Fatalf("seed %d (m=%d): %v", seed, m, err)
		}
		made := randomUpdates(t, &f, cols, basis, rng, m)
		if made == 0 {
			t.Fatalf("seed %d: no update could be made", seed)
		}
		if f.updates() != made {
			t.Fatalf("seed %d: %d updates made, factor counts %d", seed, made, f.updates())
		}
		// Against the dense reference ...
		checkSolves(t, &f, cols, basis, cols[m:2*m], rng)
		// ... and against a fresh factorization of where the updates led.
		fresh := newBasisFactor(m)
		if err := fresh.refactor(cols, basis); err != nil {
			t.Fatalf("seed %d: refactor after %d updates: %v", seed, made, err)
		}
		x, xf := make([]float64, m), make([]float64, m)
		for i := m; i < 2*m; i++ {
			f.ftran(scatter(m, &cols[i]), x, false)
			fresh.ftran(scatter(m, &cols[i]), xf, false)
			if k, ok := closeVec(x, xf); !ok {
				t.Fatalf("seed %d: after %d updates ftran[%d] = %g, fresh factor %g", seed, made, k, x[k], xf[k])
			}
		}
		for p := 0; p < m; p++ {
			c, cf := make([]float64, m), make([]float64, m)
			c[p], cf[p] = 1, 1
			f.btran(c, x)
			fresh.btran(cf, xf)
			if k, ok := closeVec(x, xf); !ok {
				t.Fatalf("seed %d: after %d updates btran(e_%d)[%d] = %g, fresh factor %g", seed, made, p, k, x[k], xf[k])
			}
		}
	}
}

func TestFactorSingularBases(t *testing.T) {
	unit := func(r int32, v float64) spCol { return spCol{ind: []int32{r}, val: []float64{v}} }
	cases := []struct {
		name string
		cols []spCol
	}{
		{"two singletons in one row", []spCol{unit(0, 1), unit(0, 2), unit(2, 1)}},
		{"empty column", []spCol{unit(0, 1), {}, unit(2, 1)}},
		{"repeated column", []spCol{
			{ind: []int32{0, 1}, val: []float64{1, 2}},
			{ind: []int32{0, 1}, val: []float64{1, 2}},
			unit(2, 1)}},
		{"dependent nucleus", []spCol{
			{ind: []int32{0, 1}, val: []float64{1, 1}},
			{ind: []int32{1, 2}, val: []float64{1, 1}},
			{ind: []int32{0, 2}, val: []float64{1, -1}}}},
		{"vanishing singleton", []spCol{unit(0, 1e-14), unit(1, 1), unit(2, 1)}},
	}
	for _, tc := range cases {
		f := newBasisFactor(3)
		if err := f.refactor(tc.cols, []int32{0, 1, 2}); !errors.Is(err, errSingularBasis) {
			t.Errorf("%s: refactor returned %v, want errSingularBasis", tc.name, err)
		}
		// The factor must be reusable after a refusal.
		id := []spCol{unit(0, 2), unit(1, 4), unit(2, 8)}
		if err := f.refactor(id, []int32{0, 1, 2}); err != nil {
			t.Fatalf("%s: refactor of a diagonal basis afterwards: %v", tc.name, err)
		}
		x := make([]float64, 3)
		f.ftran([]float64{2, 4, 8}, x, false)
		for i, v := range x {
			if v != 1 {
				t.Errorf("%s: diagonal solve afterwards x[%d] = %g, want 1", tc.name, i, v)
			}
		}
	}
}

func TestFactorBitStable(t *testing.T) {
	run := func() []uint64 {
		rng := rand.New(rand.NewSource(7))
		m := 60
		basis, cols := regularBasis(rng, m)
		f := newBasisFactor(m)
		if err := f.refactor(cols, basis); err != nil {
			t.Fatal(err)
		}
		randomUpdates(t, &f, cols, basis, rng, 30)
		var bits []uint64
		x := make([]float64, m)
		for i := m; i < 2*m; i++ {
			f.ftran(scatter(m, &cols[i]), x, false)
			for _, v := range x {
				bits = append(bits, math.Float64bits(v))
			}
			c := make([]float64, m)
			c[i-m] = 1
			f.btran(c, x)
			for _, v := range x {
				bits = append(bits, math.Float64bits(v))
			}
		}
		return bits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("identical inputs, different bits at output %d: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestFactorSteadyStateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := 80
	basis0, cols := regularBasis(rng, m)
	f := newBasisFactor(m)
	// One cycle: refactor, then a fixed chain of entering columns, each
	// replacing the position where its ftran is largest. The first pass
	// sizes every buffer; the passes AllocsPerRun measures repeat it.
	basis := make([]int32, m)
	a, w, c, y := make([]float64, m), make([]float64, m), make([]float64, m), make([]float64, m)
	cycle := func() {
		copy(basis, basis0)
		if err := f.refactor(cols, basis); err != nil {
			t.Fatal(err)
		}
		for q := m; q < m+40; q++ {
			for k, r := range cols[q].ind {
				a[r] = cols[q].val[k]
			}
			f.ftran(a, w, true)
			p, big := 0, 0.0
			for i, v := range w {
				if math.Abs(v) > big {
					p, big = i, math.Abs(v)
				}
			}
			if big < 0.05 || !f.update(p, w[p]) {
				continue
			}
			basis[p] = int32(q)
			c[p] = 1
			f.btran(c, y)
		}
	}
	cycle()
	if f.updates() < 10 {
		t.Fatalf("only %d updates in the cycle; the test needs a longer chain", f.updates())
	}
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Errorf("refactor + ftran/update/btran chain on a warm factor: %v allocs per cycle, want 0", n)
	}
}

// rootAndDive solves m's root relaxation and then depth dual re-solves
// down one branch of the tree (the branching variable rounded up, down
// where that is infeasible), calling check on the workspace after the
// root and after the last level.
func rootAndDive(t *testing.T, m *Model, depth int, check func(stage string, sf *standardForm, ws *lpWorkspace)) {
	t.Helper()
	sf, err := lowerModel(m, true)
	if err != nil {
		t.Fatal(err)
	}
	sf.dualOK = true
	ws := newWorkspace(sf)
	lo, hi := sf.cloneBounds()
	st, _, x, _, err := solveLP(sf, lo, hi, defaultIterLimit, nil, nil, restartPrimal, ws)
	if err != nil || st != lpOptimal {
		t.Fatalf("root LP: status %v, err %v", st, err)
	}
	check("root", sf, ws)
	level := 0
	for ; level < depth; level++ {
		j := fractionalVar(sf, x)
		if j < 0 {
			break
		}
		snap := ws.captureBasis(sf)
		oldLo, oldHi := lo[j], hi[j]
		lo[j] = math.Ceil(x[j])
		st, _, nx, _, err := solveLP(sf, lo, hi, defaultIterLimit, x, snap, restartDual, ws)
		if err == nil && st == lpInfeasible {
			lo[j], hi[j] = oldLo, math.Floor(x[j])
			st, _, nx, _, err = solveLP(sf, lo, hi, defaultIterLimit, x, snap, restartDual, ws)
		}
		if err != nil || st != lpOptimal {
			t.Fatalf("dive level %d on variable %d [%g, %g]: status %v, err %v", level, j, oldLo, oldHi, st, err)
		}
		x = nx
	}
	if level < depth {
		t.Fatalf("the dive turned integral at depth %d, before the %d asked for", level, depth)
	}
	if depth > 0 {
		check(fmt.Sprintf("depth %d", level), sf, ws)
	}
}

// checkFactorOnModel is the real-model half of the factor's tests (its
// callers, which build the models, live in the external test package):
// at the root basis and at a dive node's, the workspace's own factor —
// updates and all — and a fresh one must both match the dense
// reference.
func checkFactorOnModel(t *testing.T, m *Model, depth int) {
	rootAndDive(t, m, depth, func(stage string, sf *standardForm, ws *lpWorkspace) {
		n := sf.nStruct + sf.m
		cols := ws.cols[:n]
		basis := ws.basis[:sf.m]
		rng := rand.New(rand.NewSource(1))
		var rhs []spCol
		for len(rhs) < 24 {
			rhs = append(rhs, cols[rng.Intn(n)])
		}
		t.Logf("%s: m=%d, %d updates in the workspace's factor", stage, sf.m, ws.fac.updates())
		checkSolves(t, &ws.fac, cols, basis, rhs, rng)
		fresh := newBasisFactor(sf.m)
		if err := fresh.refactor(cols, basis); err != nil {
			t.Fatalf("%s: fresh refactor: %v", stage, err)
		}
		checkSolves(t, &fresh, cols, basis, rhs, rng)
	})
}

// solveWithDebugChecks runs the root LP, a dive and a short
// branch-and-bound tree on m with the solver's internal invariant checks
// on (they panic on violation).
func solveWithDebugChecks(t *testing.T, m *Model) {
	debugChecks = debugInvariants
	t.Cleanup(func() { debugChecks = 0 })
	rootAndDive(t, m, 6, func(string, *standardForm, *lpWorkspace) {})
	sol, err := Solve(m, Options{NodeLimit: 12, Gap: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("short tree: %d nodes, %d simplex iterations (%d dual), %d fallbacks", sol.Nodes, sol.SimplexIter, sol.DualIters, sol.PrimalFallbacks)
}
