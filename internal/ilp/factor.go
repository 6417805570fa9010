package ilp

import (
	"math"
	"slices"
)

// The factored basis. Both simplexes need four things of the m×m basis
// matrix B (column c of B is the constraint column basic at position
// c): x = B⁻¹a (ftran), yᵀ = cᵀB⁻¹ (btran), a cheap way to follow B
// through a one-column change (update), and a clean restart (refactor).
// An explicit B⁻¹ gives all four in O(m²); the bases of this solver's
// LPs are about three entries a column and three quarters unit slacks,
// so a factorization gives them in O(nnz).
//
// refactor finds a pivot sequence of m (row, position) steps in three
// phases:
//
//   - column singletons, to a fixpoint: a column with one entry left in
//     the unpivoted rows pivots there. Its other entries lie in pivoted
//     rows and go to U; nothing is eliminated.
//   - row singletons, to a fixpoint: a row with one unpivoted column
//     left pivots on it (if the entry passes the threshold test against
//     the rest of its column). The column's remaining entries become
//     multipliers in L; no other column has an entry in that row, so
//     again nothing is eliminated and nothing fills in.
//   - the nucleus that is left: left-looking sparse LU, columns in order
//     of (entry count, position), each column's pivot the row of fewest
//     remaining entries among those within luThreshold of the column's
//     largest, ties to the lowest row index.
//
// The result is L⁻¹·B = U with L a product of column etas (one per step
// that has multipliers) and U upper triangular in pivot order, stored by
// column.
//
// update follows a one-column basis change by the Forrest–Tomlin scheme:
// the new column's partial transform (the "spike") replaces the old
// column of U, its step moves to the end of the pivot order, and the
// entries that leaves in the step's row are eliminated by one row
// transformation R, so after k changes
//
//	B⁻¹ = U⁻¹ · R_k ··· R_1 · L⁻¹
//
// with U still triangular. Spike and row transformation both have about
// as many entries as a column of B, where the dense-ish B⁻¹a a
// product-form eta would store has hundreds — on these LPs that is the
// difference between solves that cost nnz(L+U) and solves that cost ten
// times as much by the twentieth change.
//
// Nothing here depends on map order, goroutines or the allocator: equal
// inputs give bit-equal factors and solves. All buffers are owned by
// the factor and grow by append, so solves and updates on a workspace
// that has seen its largest basis allocate nothing.
type basisFactor struct {
	m int

	// steps is the pivot sequence, in pivot order: refactor's order,
	// then each updated step moved to the end. U is stored by column,
	// uidx/uval[s.us:s.ue] being step s's entries in rows of earlier
	// steps; urow counts the entries U holds in each row.
	steps []luStep
	uidx  []int32
	uval  []float64
	urow  []int32

	// L, a product of column etas in pivot order: eta k subtracts
	// lval[p]·a[lrow[k]] from a[lidx[p]] for p in lstart[k]:lstart[k+1].
	lrow   []int32
	lstart []int32
	lidx   []int32
	lval   []float64

	// Row transformations, one per update: row rrow[e] loses
	// rval[p]·(row ridx[p]) for p in rstart[e]:rstart[e+1].
	rrow   []int32
	rstart []int32
	ridx   []int32
	rval   []float64

	// The entering column's spike, kept by ftran for update.
	spk []float64

	// refactor and update scratch.
	rowCnt, colCnt   []int32 // entries left in unpivoted columns / rows
	rowDone, colDone []bool
	bstart, bnext    []int32 // row-wise pattern of B: positions per row
	bpos             []int32
	queue            []int32
	nuc              []int64   // nucleus columns, keyed count<<32 | position
	work             []float64 // dense column accumulator, zero between uses
	mu               []float64 // update's multipliers by row, zero between uses
	mark             []bool    // rows present in pat
	pat              []int32
}

// luStep is one pivot: row row is eliminated with the column at basis
// position pos, whose entry there is piv. Solves divide by it rather
// than multiply by a stored reciprocal: the models' data are integers,
// and a quotient that is exactly representable then comes out exact.
type luStep struct {
	row, pos int32
	us, ue   int32
	piv      float64
}

const (
	// luThreshold is how close to its column's largest eligible entry a
	// pivot must be (threshold partial pivoting).
	luThreshold = 0.1
	// luTiny is the magnitude below which a pivot candidate is treated
	// as structurally zero.
	luTiny = 1e-12
	// updateAgree is the relative difference tolerated between an
	// update's two computations of its new pivot.
	updateAgree = 1e-9
)

func newBasisFactor(m int) basisFactor {
	return basisFactor{
		m:       m,
		steps:   make([]luStep, 0, m),
		urow:    make([]int32, m),
		spk:     make([]float64, m),
		lrow:    make([]int32, 0, m),
		lstart:  make([]int32, 1, m+1),
		rrow:    make([]int32, 0, refactorEvery),
		rstart:  make([]int32, 1, refactorEvery+1),
		rowCnt:  make([]int32, m),
		colCnt:  make([]int32, m),
		rowDone: make([]bool, m),
		colDone: make([]bool, m),
		bstart:  make([]int32, m+1),
		bnext:   make([]int32, m),
		queue:   make([]int32, 0, m),
		nuc:     make([]int64, 0, m),
		work:    make([]float64, m),
		mu:      make([]float64, m),
		mark:    make([]bool, m),
		pat:     make([]int32, 0, m),
	}
}

// updates reports how many basis changes the factor has followed since
// it was last rebuilt.
func (f *basisFactor) updates() int { return len(f.rrow) }

// refactor factors the basis whose position c holds column
// cols[basis[c]], discarding all updates. It returns errSingularBasis
// when no acceptable pivot sequence exists; the factor is then unusable
// until the next successful refactor.
func (f *basisFactor) refactor(cols []spCol, basis []int32) error {
	m := f.m
	f.rrow, f.rstart, f.ridx, f.rval = f.rrow[:0], f.rstart[:1], f.ridx[:0], f.rval[:0]
	f.steps, f.uidx, f.uval = f.steps[:0], f.uidx[:0], f.uval[:0]
	f.lrow, f.lstart, f.lidx, f.lval = f.lrow[:0], f.lstart[:1], f.lidx[:0], f.lval[:0]

	// Row-wise pattern of B and the entry counts both peels run on.
	rowCnt, colCnt := f.rowCnt, f.colCnt
	rowDone, colDone := f.rowDone, f.colDone
	clear(rowCnt)
	clear(rowDone)
	clear(colDone)
	clear(f.urow)
	for c, bj := range basis {
		ind := cols[bj].ind
		colCnt[c] = int32(len(ind))
		for _, r := range ind {
			rowCnt[r]++
		}
	}
	bstart, bnext := f.bstart, f.bnext
	for r := 0; r < m; r++ {
		bstart[r+1] = bstart[r] + rowCnt[r]
	}
	copy(bnext, bstart[:m])
	if n := int(bstart[m]); cap(f.bpos) < n {
		f.bpos = make([]int32, n)
	}
	bpos := f.bpos[:bstart[m]]
	for c, bj := range basis {
		for _, r := range cols[bj].ind {
			bpos[bnext[r]] = int32(c)
			bnext[r]++
		}
	}

	// Column singletons. A column reaches count 1 once, so the queue
	// holds at most m entries; one whose last row was taken by another
	// singleton (count 0) is left for the nucleus to report.
	queue := f.queue[:0]
	for c := 0; c < m; c++ {
		if colCnt[c] == 1 {
			queue = append(queue, int32(c))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		if colCnt[c] != 1 {
			continue
		}
		col := &cols[basis[c]]
		r, piv := int32(-1), 0.0
		for k, ri := range col.ind {
			if !rowDone[ri] {
				r, piv = ri, col.val[k]
				break
			}
		}
		if math.Abs(piv) < luTiny {
			return errSingularBasis
		}
		for k, ri := range col.ind {
			if ri != r {
				f.appendU(ri, col.val[k])
			}
		}
		f.endStep(r, c, piv)
		rowDone[r], colDone[c] = true, true
		for _, c2 := range bpos[bstart[r]:bstart[r+1]] {
			if !colDone[c2] {
				colCnt[c2]--
				if colCnt[c2] == 1 {
					queue = append(queue, c2)
				}
			}
		}
	}

	// Row singletons. Every pivoted column so far has no entry in an
	// unpivoted row, so rowCnt already counts unpivoted columns only.
	queue = queue[:0]
	for r := 0; r < m; r++ {
		if !rowDone[r] && rowCnt[r] == 1 {
			queue = append(queue, int32(r))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		r := queue[qi]
		if rowCnt[r] != 1 {
			continue
		}
		c := int32(-1)
		for _, c2 := range bpos[bstart[r]:bstart[r+1]] {
			if !colDone[c2] {
				c = c2
				break
			}
		}
		col := &cols[basis[c]]
		piv, big := 0.0, 0.0
		for k, ri := range col.ind {
			if rowDone[ri] {
				continue
			}
			big = math.Max(big, math.Abs(col.val[k]))
			if ri == r {
				piv = col.val[k]
			}
		}
		if math.Abs(piv) < luThreshold*big || math.Abs(piv) < luTiny {
			continue // too small to divide by: the nucleus decides
		}
		for k, ri := range col.ind {
			switch {
			case ri == r:
			case rowDone[ri]:
				f.appendU(ri, col.val[k])
			default:
				f.lidx = append(f.lidx, ri)
				f.lval = append(f.lval, col.val[k]/piv)
				rowCnt[ri]--
				if rowCnt[ri] == 1 {
					queue = append(queue, ri)
				}
			}
		}
		f.endStep(r, c, piv)
		rowDone[r], colDone[c] = true, true
	}
	f.queue = queue[:0]

	// Nucleus. Its columns have no entry in a row-singleton pivot row
	// (that row's one unpivoted column was another), and multipliers sit
	// only on rows unpivoted when they were made, so none of the L
	// columns above can apply to a nucleus column: elimination starts at
	// the nucleus's own.
	nuc := f.nuc[:0]
	for c := 0; c < m; c++ {
		if colDone[c] {
			continue
		}
		cnt := int64(0)
		for _, ri := range cols[basis[c]].ind {
			if !rowDone[ri] {
				cnt++
			}
		}
		nuc = append(nuc, cnt<<32|int64(c))
	}
	f.nuc = nuc[:0]
	slices.Sort(nuc)
	work, mark := f.work, f.mark
	firstL := len(f.lrow)
	for _, key := range nuc {
		c := int32(key & (1<<32 - 1))
		col := &cols[basis[c]]
		pat := f.pat[:0]
		for k, ri := range col.ind {
			work[ri] = col.val[k]
			mark[ri] = true
			pat = append(pat, ri)
		}
		for k := firstL; k < len(f.lrow); k++ {
			t := work[f.lrow[k]]
			if t == 0 {
				continue
			}
			for p := f.lstart[k]; p < f.lstart[k+1]; p++ {
				ri := f.lidx[p]
				if !mark[ri] {
					mark[ri] = true
					pat = append(pat, ri)
				}
				work[ri] -= f.lval[p] * t
			}
		}
		f.pat = pat[:0]
		big := 0.0
		for _, ri := range pat {
			if !rowDone[ri] {
				big = math.Max(big, math.Abs(work[ri]))
			}
		}
		r := int32(-1)
		if big >= luTiny {
			for _, ri := range pat {
				if rowDone[ri] || math.Abs(work[ri]) < luThreshold*big {
					continue
				}
				if r < 0 || rowCnt[ri] < rowCnt[r] || (rowCnt[ri] == rowCnt[r] && ri < r) {
					r = ri
				}
			}
		}
		var piv float64
		if r >= 0 {
			piv = work[r]
		}
		for _, ri := range pat {
			v := work[ri]
			work[ri], mark[ri] = 0, false
			if r < 0 || ri == r || v == 0 {
				continue
			}
			if rowDone[ri] {
				f.appendU(ri, v)
			} else {
				f.lidx = append(f.lidx, ri)
				f.lval = append(f.lval, v/piv)
			}
		}
		if r < 0 {
			return errSingularBasis
		}
		f.endStep(r, c, piv)
		rowDone[r], colDone[c] = true, true
		for _, ri := range col.ind {
			if !rowDone[ri] {
				rowCnt[ri]--
			}
		}
	}
	if len(f.steps) != m {
		return errSingularBasis
	}
	return nil
}

// appendU adds an entry in row r to the U column being built.
func (f *basisFactor) appendU(r int32, v float64) {
	f.uidx = append(f.uidx, r)
	f.uval = append(f.uval, v)
	f.urow[r]++
}

// endStep closes the pivot step on (row r, position c) whose U and L
// entries have just been appended.
func (f *basisFactor) endStep(r, c int32, piv float64) {
	us := int32(0)
	if n := len(f.steps); n > 0 {
		us = f.steps[n-1].ue
	}
	f.steps = append(f.steps, luStep{row: r, pos: c, us: us, ue: int32(len(f.uidx)), piv: piv})
	if n := int32(len(f.lidx)); n > f.lstart[len(f.lrow)] {
		f.lrow = append(f.lrow, r)
		f.lstart = append(f.lstart, n)
	}
}

// spike applies L⁻¹ and then the row transformations to a, in place:
// the half of ftran that precedes the solve with U.
func (f *basisFactor) spike(a []float64) {
	for k, r := range f.lrow {
		t := a[r]
		if t == 0 {
			continue
		}
		idx := f.lidx[f.lstart[k]:f.lstart[k+1]]
		val := f.lval[f.lstart[k]:f.lstart[k+1]]
		for p, ri := range idx {
			a[ri] -= val[p] * t
		}
	}
	for e, r := range f.rrow {
		idx := f.ridx[f.rstart[e]:f.rstart[e+1]]
		val := f.rval[f.rstart[e]:f.rstart[e+1]]
		s := a[r]
		for p, ri := range idx {
			s -= val[p] * a[ri]
		}
		a[r] = s
	}
}

// ftran solves B·x = a. a is indexed by row and is consumed: every
// entry is zero on return, so a caller's scatter buffer stays clean. x
// is indexed by basis position and fully overwritten. With enter set, a
// is the column about to enter the basis and its spike is kept for the
// update that follows.
func (f *basisFactor) ftran(a, x []float64, enter bool) {
	f.spike(a)
	if enter {
		copy(f.spk, a)
	}
	for k := len(f.steps) - 1; k >= 0; k-- {
		st := &f.steps[k]
		t := a[st.row]
		if t == 0 {
			x[st.pos] = 0
			continue
		}
		a[st.row] = 0
		t /= st.piv
		x[st.pos] = t
		idx := f.uidx[st.us:st.ue]
		val := f.uval[st.us:st.ue]
		for p, ri := range idx {
			a[ri] -= val[p] * t
		}
	}
}

// btran solves yᵀ·B = cᵀ. c is indexed by basis position and is
// consumed (zero on return); y is indexed by row and fully overwritten.
func (f *basisFactor) btran(c, y []float64) {
	// Until c's first non-zero in pivot order, every y is zero and so
	// is every product with one: a unit c, the dual's usual, starts at
	// its own step.
	k := 0
	for ; k < len(f.steps); k++ {
		st := &f.steps[k]
		if c[st.pos] != 0 {
			break
		}
		y[st.row] = 0
	}
	for ; k < len(f.steps); k++ {
		st := &f.steps[k]
		s := c[st.pos]
		c[st.pos] = 0
		idx := f.uidx[st.us:st.ue]
		val := f.uval[st.us:st.ue]
		for p, ri := range idx {
			s -= val[p] * y[ri]
		}
		y[st.row] = s / st.piv
	}
	for e := len(f.rrow) - 1; e >= 0; e-- {
		t := y[f.rrow[e]]
		if t == 0 {
			continue
		}
		idx := f.ridx[f.rstart[e]:f.rstart[e+1]]
		val := f.rval[f.rstart[e]:f.rstart[e+1]]
		for p, ri := range idx {
			y[ri] -= val[p] * t
		}
	}
	for k := len(f.lrow) - 1; k >= 0; k-- {
		idx := f.lidx[f.lstart[k]:f.lstart[k+1]]
		val := f.lval[f.lstart[k]:f.lstart[k+1]]
		s := 0.0
		for p, ri := range idx {
			s += val[p] * y[ri]
		}
		y[f.lrow[k]] -= s
	}
}

// dropResidue zeroes the entries of a solve's result that are below the
// rounding error of its largest: an entry 10¹⁵ times smaller than
// another it was eliminated against carries no correct digit, and left
// in place it is indistinguishable from a small genuine coefficient.
func dropResidue(v []float64) {
	big := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > big {
			big = a
		}
	}
	cut := big * 1e-15
	for i, x := range v {
		if math.Abs(x) < cut {
			v[i] = 0
		}
	}
}

// update follows the replacement of the column at basis position pos by
// the column of the latest ftran with enter set; wpos is that ftran's
// entry at pos. The new pivot is computed here from the spike, and is
// also — exactly, in exact arithmetic — wpos times the old one. update
// reports false when the two disagree beyond updateAgree (or the pivot
// vanishes): the factors have lost the accuracy the next solves need,
// and are unusable until the next successful refactor. How small a
// pivot may be is the ratio tests' decision, made on wpos; it is not
// second-guessed here.
func (f *basisFactor) update(pos int, wpos float64) bool {
	k := 0
	for f.steps[k].pos != int32(pos) {
		k++
	}
	t := f.steps[k]
	for _, r := range f.uidx[t.us:t.ue] {
		f.urow[r]--
	}

	// Row t.row's entries in the columns after step t would sit below
	// the diagonal once t moves last. Remove them, and find the multiples
	// mu of those columns' own rows that cancel them: column by column,
	// what is left of the entry after the earlier rows' multiples is
	// divided by the column's pivot. pending counts the U entries still
	// ahead in row t.row and in rows that have a multiple; at zero no
	// later column can contribute.
	mu := f.mu
	r0 := len(f.ridx)
	pending := f.urow[t.row]
	for j := k + 1; j < len(f.steps) && pending > 0; j++ {
		st := &f.steps[j]
		s := 0.0
		for p := st.us; p < st.ue; {
			ri := f.uidx[p]
			if ri == t.row {
				s += f.uval[p]
				st.ue--
				f.uidx[p], f.uval[p] = f.uidx[st.ue], f.uval[st.ue]
				pending--
				continue
			}
			if mu[ri] != 0 {
				s -= mu[ri] * f.uval[p]
				pending--
			}
			p++
		}
		if s != 0 {
			mu[st.row] = s / st.piv
			f.ridx = append(f.ridx, st.row)
			f.rval = append(f.rval, mu[st.row])
			pending += f.urow[st.row]
		}
	}
	f.urow[t.row] = 0
	f.rrow = append(f.rrow, t.row)
	f.rstart = append(f.rstart, int32(len(f.ridx)))

	// The spike, through this row transformation too, becomes step t's
	// column; its entry in row t.row the pivot.
	spk := f.spk
	piv := spk[t.row]
	for p, rj := range f.ridx[r0:] {
		piv -= f.rval[r0+p] * spk[rj]
		mu[rj] = 0
	}
	t.us = int32(len(f.uidx))
	for r, v := range spk {
		if v != 0 && int32(r) != t.row {
			f.appendU(int32(r), v)
		}
	}
	t.ue = int32(len(f.uidx))
	if want := wpos * t.piv; piv == 0 || math.Abs(piv-want) > updateAgree*math.Abs(want) {
		return false
	}
	t.piv = piv
	copy(f.steps[k:], f.steps[k+1:])
	f.steps[len(f.steps)-1] = t
	return true
}
