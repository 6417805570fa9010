package sem_test

import (
	"errors"
	"math/rand"
	"testing"

	"p4all/internal/core"
	"p4all/internal/dep"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sem"
)

// guardReadSource reads register s in mark's guard after wr writes it.
const guardReadSource = `
header pkt { bit<32> a; }
struct meta { bit<32> z1; bit<32> z2; bit<32> marked; }
register<bit<32>>[16] s;
action c1() { meta.z1 = pkt.a + 1; }
action c2() { meta.z2 = meta.z1 + 1; }
action wr() { s[0] = meta.z2; }
action mark() { meta.marked = 1; }
control main { apply { c1(); c2(); wr(); if (s[0] == 7) { mark(); } } }
`

// touch is one register or field instance a walk read or wrote.
type touch struct {
	reg   bool
	name  string
	inst  uint64
	write bool
}

// recorder is a uint64 domain that records every storage access. Values
// it has not stored are drawn small, so equality guards go both ways.
type recorder struct {
	rng     *rand.Rand
	vals    map[touch]uint64 // keyed with write false
	touched []touch
}

func (r *recorder) value(k touch) uint64 {
	if v, ok := r.vals[k]; ok {
		return v
	}
	v := uint64(r.rng.Intn(8))
	r.vals[k] = v
	return v
}

func (r *recorder) Const(v uint64) uint64                   { return v }
func (r *recorder) Charge(pisa.ActionProfile)               {}
func (r *recorder) Decide(v uint64) (bool, error)           { return v != 0, nil }
func (r *recorder) Builtin(name string, x, y uint64) uint64 { return sem.Call(name, x, y) }
func (r *recorder) Abort(reason string) error               { return errors.New(reason) }

func (r *recorder) Unary(op lang.Kind, x uint64, w int) uint64 {
	if op == lang.NOT {
		if x == 0 {
			return 1
		}
		return 0
	}
	return sem.MaskTo(-x, w)
}

func (r *recorder) Binary(op lang.Kind, x, y uint64, w int) (uint64, error) {
	v, err := sem.BinOp(op, x, y)
	return sem.MaskTo(v, w), err
}

func (r *recorder) RegRead(name string, inst int64, _ uint64, _ int) uint64 {
	k := touch{reg: true, name: name, inst: uint64(inst)}
	r.touched = append(r.touched, k)
	return r.value(k)
}

func (r *recorder) RegWrite(name string, inst int64, _, v uint64, _ int) {
	k := touch{reg: true, name: name, inst: uint64(inst)}
	r.vals[k] = v
	k.write = true
	r.touched = append(r.touched, k)
}

func (r *recorder) FieldRead(f sem.Field) uint64 {
	k := touch{name: f.Qual(), inst: f.Idx}
	r.touched = append(r.touched, k)
	return r.value(k)
}

func (r *recorder) FieldWrite(f sem.Field, v uint64) {
	k := touch{name: f.Qual(), inst: f.Idx}
	r.vals[k] = v
	k.write = true
	r.touched = append(r.touched, k)
}

// placed returns the steps a layout of src places and the symbolic
// values it solved. The cost-table program has no layout (r[K] is shared
// across iterations), so its steps are every instance with a body at
// n = 2, as TestCostTable runs them.
func placed(t *testing.T, name, src string) (*lang.Unit, map[string]int64, []sem.Step) {
	if name != "cost table" {
		res, err := core.Compile(src, pisa.EvalTarget(pisa.Mb), core.Options{SkipCodegen: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, steps := res.Layout.Steps(res.Unit)
		return res.Unit, res.Layout.Symbolics, steps
	}
	u, err := lang.ParseAndResolve(src)
	if err != nil {
		t.Fatal(err)
	}
	var steps []sem.Step
	for _, in := range dep.Enumerate(u, dep.Counts{u.SymbolicByName("n"): 2}) {
		if in.Inv.Action.Decl == nil {
			continue
		}
		steps = append(steps, sem.Step{Inv: in.Inv, Iter: in.Iter()})
	}
	return u, map[string]int64{"n": 2}, steps
}

// TestFootprintCoversExecution is the census: every placed step of the
// twelve shipped programs, the cost-table program and the guard-read
// program runs over seeded packets, and each register or field instance
// the walk touches must be in the step's footprint, read or written as
// it was, with the iteration resolved for that step.
func TestFootprintCoversExecution(t *testing.T) {
	progs := sem.ShippedPrograms()
	progs["cost table"] = sem.CostSource
	progs["guard read"] = guardReadSource
	rng := rand.New(rand.NewSource(1))
	for name, src := range progs {
		u, syms, steps := placed(t, name, src)
		touches := 0
		for i := range steps {
			s := &steps[i]
			covered := map[touch]bool{}
			for _, a := range sem.Footprint(u, s.Inv) {
				k := touch{reg: a.Reg != nil, write: a.Write}
				if a.Reg != nil {
					k.name = a.Reg.Name
				} else {
					k.name = a.Field.Qual()
				}
				switch a.Inst {
				case sem.InstIter:
					k.inst = uint64(s.Iter)
				case sem.InstConst:
					k.inst = a.Const
				}
				covered[k] = true
			}
			for range 32 {
				r := &recorder{rng: rng, vals: map[touch]uint64{}}
				_ = sem.Exec(r, u, syms, s)
				for _, k := range r.touched {
					if !covered[k] {
						t.Fatalf("%s: step %s[%d] touched %+v outside its footprint", name, s.Inv.Action.Name, s.Iter, k)
					}
				}
				touches += len(r.touched)
			}
		}
		if touches == 0 {
			t.Errorf("%s: no step touched storage", name)
		}
	}
}
