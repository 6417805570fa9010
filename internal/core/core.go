// Package core implements the P4All compiler — the paper's primary
// contribution (§4, Figure 8). Compile runs the full pipeline:
//
//	P4All source ─parse/resolve→ Unit
//	            ─dependency analysis + unrolling bounds→ (§4.2)
//	            ─ILP generation→ Figure 10 model (§4.3)
//	            ─ILP solve→ symbolic assignment + stage mapping
//	            ─code generation→ concrete P4 program
//
// The result carries everything the paper's evaluation reports:
// per-phase times, ILP size (Figure 11), the layout (Figure 7), the
// symbolic assignment (Figures 12/13), and the generated program.
//
// The per-program stages are exported so the joint multi-tenant
// compiler (internal/multitenant) runs the same code around its own
// model: Front (parse and bounds), Solve (the observed solve) and Back
// (codegen and certify).
//
// When Options.Tracer is set, the pipeline additionally emits one
// obs.Span per phase (parse, bounds, generate, solve, codegen) under a
// root "compile" span, with per-phase attributes (AST node counts,
// chosen unroll bounds, ILP dimensions, solver effort) and solver
// search-progress events; see docs/OBSERVABILITY.md for the schema.
package core

import (
	"fmt"
	"strings"
	"time"

	"p4all/internal/check"
	"p4all/internal/codegen"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/tv"
	"p4all/internal/unroll"
)

// Options configures a compilation.
type Options struct {
	// Solver tunes the branch-and-bound search. Zero-valued fields
	// get compiler defaults: a 3% optimality gap, 4000-node and
	// 90-second limits (Layout.Stats.Gap records what was certified;
	// set Solver.Gap negative for exact optimization). Solver.Threads
	// passes through untouched: by default the solve fans out over
	// runtime.GOMAXPROCS(0) workers, and Threads: 1 makes it one
	// reproducible worker (see docs/PARALLEL_SOLVER.md).
	Solver ilp.Options
	// SkipCodegen stops after solving (benchmarks that only need the
	// layout).
	SkipCodegen bool
	// Certify runs the translation validator (internal/tv) after code
	// generation and attaches the equivalence certificate to the
	// result. It forces code generation even under SkipCodegen.
	Certify bool
	// Name labels the compilation in traces and certificates (the app
	// or source-file name).
	Name string
	// Tracer receives per-phase spans and solver progress events. Nil
	// (the default) disables tracing at near-zero cost.
	Tracer *obs.Tracer
}

// withDefaults fills unset solver knobs.
func (o Options) withDefaults() Options {
	if o.Solver.Gap == 0 {
		o.Solver.Gap = 0.03
	} else if o.Solver.Gap < 0 {
		o.Solver.Gap = 0
	}
	if o.Solver.NodeLimit == 0 {
		o.Solver.NodeLimit = 4000
	}
	if o.Solver.TimeLimit == 0 {
		o.Solver.TimeLimit = 90 * time.Second
	}
	return o
}

// Phases records per-phase wall time. A single compile leaves Isolate
// zero; a joint compile (internal/multitenant) sums its tenants' front
// and back halves into the same fields.
type Phases struct {
	Parse    time.Duration
	Bounds   time.Duration
	Generate time.Duration
	Isolate  time.Duration
	Solve    time.Duration
	Codegen  time.Duration
	Certify  time.Duration
}

// Total returns the end-to-end compile time.
func (p Phases) Total() time.Duration {
	return p.Parse + p.Bounds + p.Generate + p.Isolate + p.Solve + p.Codegen + p.Certify
}

// Result is a completed compilation.
type Result struct {
	Unit   *lang.Unit
	Target pisa.Target
	Bounds *unroll.Result
	ILP    *ilpgen.ILP
	Layout *ilpgen.Layout
	// Concrete is the structured form of the emitted program; P4 is
	// its rendering (both set unless codegen was skipped).
	Concrete *codegen.Concrete
	P4       string
	// Warnings carries check.Bounds findings for the compiled unit —
	// every compile surfaces them uniformly.
	Warnings []check.Warning
	// Certificate is the translation-validation result (Options.Certify).
	Certificate *tv.Certificate
	Phases      Phases
}

// Compile runs the full P4All pipeline on source for the target.
func Compile(source string, target pisa.Target, opts Options) (*Result, error) {
	root := opts.Tracer.StartSpan("compile", obs.String("target", target.Name))
	defer root.End()
	res, err := Front(source, target, root)
	if err != nil {
		return nil, err
	}
	return compileUnit(res, opts, root)
}

// Front is the front half of the pipeline for one program: parse and
// resolve, then the check.Bounds audit and the §4.2 unroll bounds
// against target, each phase a span under root. The result carries the
// unit, its warnings and bounds, and the two phases' times.
func Front(source string, target pisa.Target, root *obs.Span) (*Result, error) {
	start := time.Now()
	sp := root.Child("parse")
	u, err := lang.ParseAndResolve(source)
	if err != nil {
		sp.SetAttrs(obs.String("error", err.Error()))
		sp.End()
		return nil, fmt.Errorf("p4all: front end: %w", err)
	}
	sp.SetAttrs(parseAttrs(u)...)
	sp.End()
	parse := time.Since(start)
	res, err := bound(u, target, root)
	if err != nil {
		return nil, err
	}
	res.Phases.Parse = parse
	return res, nil
}

// bound is Front after parsing: the static audit and the unroll bounds.
func bound(u *lang.Unit, target pisa.Target, root *obs.Span) (*Result, error) {
	res := &Result{Unit: u, Target: target, Warnings: check.Bounds(u)}
	start := time.Now()
	sp := root.Child("bounds")
	defer sp.End()
	bounds, err := unroll.UpperBounds(u, &target)
	if err != nil {
		return nil, fmt.Errorf("p4all: unroll bounds: %w", err)
	}
	sp.SetAttrs(boundsAttrs(bounds)...)
	res.Bounds = bounds
	res.Phases.Bounds = time.Since(start)
	return res, nil
}

// compileUnit runs the rest of the pipeline on a bounded unit: generate
// → Solve → Back.
func compileUnit(res *Result, opts Options, root *obs.Span) (*Result, error) {
	start := time.Now()
	sp := root.Child("generate")
	prog, err := ilpgen.Generate(res.Unit, &res.Target, res.Bounds)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("p4all: ILP generation: %w", err)
	}
	sp.SetAttrs(
		obs.Int("ilp_vars", prog.Model.NumVars()),
		obs.Int("ilp_constrs", prog.Model.NumConstrs()),
		obs.Int("dep_nodes", len(prog.Graph.Nodes)),
	)
	sp.End()
	res.ILP = prog
	res.Phases.Generate = time.Since(start)

	res.Phases.Solve, err = Solve(opts, root, func(solver ilp.Options) (ilpgen.Stats, float64, error) {
		layout, err := prog.Solve(solver)
		if err != nil {
			return ilpgen.Stats{}, 0, err
		}
		res.Layout = layout
		return layout.Stats, layout.Objective, nil
	})
	if err != nil {
		return nil, err
	}
	if err := Back(res, opts, root); err != nil {
		return nil, err
	}
	return res, nil
}

// Solve is the compiler's one observed solve, for a single program's
// model and a joint model alike. It fills the compiler's solver
// defaults into opts.Solver and hands them to solve, which runs the
// search and reports its statistics and objective. Around it, a "solve"
// span under root mirrors the branch-and-bound trajectory as solver.*
// events and records the search effort, and opts.Tracer's solver.*
// counters accumulate it. Solve returns the phase's wall time.
func Solve(opts Options, root *obs.Span, solve func(ilp.Options) (ilpgen.Stats, float64, error)) (time.Duration, error) {
	start := time.Now()
	sp := root.Child("solve")
	defer sp.End()
	solver := opts.withDefaults().Solver
	if sp != nil && solver.Progress == nil {
		// Mirror the branch-and-bound trajectory into the trace: one
		// event per root relaxation, incumbent improvement, heartbeat,
		// and terminal state.
		solver.Progress = func(p ilp.Progress) {
			attrs := []obs.Attr{
				obs.Int("nodes", p.Nodes),
				obs.Int("simplex_iters", p.SimplexIter),
				obs.Int("refactorizations", p.Refactors),
				obs.Float("best_bound", p.BestBound),
				obs.Duration("elapsed", p.Elapsed),
			}
			if p.HasIncumbent {
				attrs = append(attrs,
					obs.Float("incumbent", p.Incumbent),
					obs.Float("gap", p.Gap),
				)
			}
			sp.Event("solver."+p.Kind.String(), attrs...)
		}
	}
	st, objective, err := solve(solver)
	if err != nil {
		return 0, err
	}
	attrs := make([]obs.Attr, 0, len(solveCounts)+5)
	for _, c := range solveCounts {
		attrs = append(attrs, obs.Int(c.attr, c.value(&st)))
	}
	sp.SetAttrs(append(attrs,
		obs.Bool("warm_started", st.WarmStarted),
		obs.String("start", st.Seed()),
		obs.String("root", st.RootStart),
		obs.Float("objective", objective),
		obs.Float("gap", st.Gap),
	)...)
	// The solver.* counters accumulate across every solve this tracer
	// observes; the root LPs are counted by how they started (cold,
	// pooled, rejected), which tells whether pooled bases earn their keep.
	tr := opts.Tracer
	kind, _, _ := strings.Cut(st.RootStart, " ")
	tr.Counter("solver.root_" + kind).Add(1)
	for _, c := range solveCounts {
		if c.counter != "" {
			tr.Counter(c.counter).Add(int64(c.value(&st)))
		}
	}
	// Per-worker effort tallies: one counter pair per branch-and-bound
	// worker, accumulated across every solve this tracer observes, plus
	// a per-solve span event recording this solve's split.
	for i, w := range st.Workers {
		tr.Counter(fmt.Sprintf("solver.worker%d.nodes", i)).Add(int64(w.Nodes))
		tr.Counter(fmt.Sprintf("solver.worker%d.simplex_iters", i)).Add(int64(w.SimplexIter))
		sp.Event("solver.worker",
			obs.Int("worker", i),
			obs.Int("nodes", w.Nodes),
			obs.Int("simplex_iters", w.SimplexIter),
			obs.Int("refactorizations", w.Refactors),
		)
	}
	return time.Since(start), nil
}

// solveCounts are the solve span's integer attributes, each read off
// the solve's ilpgen.Stats. A row naming a counter also adds its value
// to that solver.* counter: dual pivots against their fallbacks and warm
// restarts against theirs say whether the basis-inheritance machinery
// earns its keep, the iteration split which caller the LP time went to,
// the neighbourhood rows what the search after the dive cost and found,
// the propagation row how many tree nodes closed without an LP, and the
// presolve rows how much of the model the root reductions removed. A
// new ilp.Effort counter is one row here.
var solveCounts = []struct {
	attr, counter string
	value         func(*ilpgen.Stats) int
}{
	{"ilp_vars", "", func(st *ilpgen.Stats) int { return st.Vars }},
	{"ilp_constrs", "", func(st *ilpgen.Stats) int { return st.Constrs }},
	{"bnb_nodes", "", func(st *ilpgen.Stats) int { return st.Nodes }},
	{"simplex_iters", "", func(st *ilpgen.Stats) int { return st.SimplexIter }},
	{"dual_iters", "solver.dual_iters", func(st *ilpgen.Stats) int { return st.DualIters }},
	{"primal_fallbacks", "solver.primal_fallbacks", func(st *ilpgen.Stats) int { return st.PrimalFallbacks }},
	{"warm_restarts", "solver.warm_restarts", func(st *ilpgen.Stats) int { return st.WarmRestarts }},
	{"warm_fallbacks", "solver.warm_fallbacks", func(st *ilpgen.Stats) int { return st.WarmFallbacks }},
	{"root_iters", "solver.root_iters", func(st *ilpgen.Stats) int { return st.RootIters }},
	{"dive_iters", "solver.dive_iters", func(st *ilpgen.Stats) int { return st.DiveIters }},
	{"neighbour_iters", "solver.neighbour_iters", func(st *ilpgen.Stats) int { return st.NeighbourIters }},
	{"neighbour_nodes", "solver.neighbour_nodes", func(st *ilpgen.Stats) int { return st.NeighbourNodes }},
	{"neighbour_found", "solver.neighbour_found", func(st *ilpgen.Stats) int { return st.NeighbourFound }},
	{"tree_iters", "solver.tree_iters", func(st *ilpgen.Stats) int { return st.TreeIters }},
	{"prop_pruned", "solver.prop_pruned", func(st *ilpgen.Stats) int { return st.PropPruned }},
	{"refactorizations", "", func(st *ilpgen.Stats) int { return st.Refactors }},
	{"presolve_rows_dropped", "solver.presolve_rows_dropped", func(st *ilpgen.Stats) int { return st.Presolve.RowsDropped }},
	{"presolve_bounds_tightened", "solver.presolve_bounds_tightened", func(st *ilpgen.Stats) int { return st.Presolve.BoundsTightened }},
	{"presolve_vars_fixed", "solver.presolve_vars_fixed", func(st *ilpgen.Stats) int { return st.Presolve.VarsFixed }},
	{"threads", "", func(st *ilpgen.Stats) int { return st.Threads }},
}

// Back is the back half of the pipeline for one solved program: code
// generation from res.Unit under res.Layout (skipped under
// opts.SkipCodegen unless opts.Certify), then, under opts.Certify,
// translation validation, certified as opts.Name. It fills in the
// emitted program, the certificate and their phases.
func Back(res *Result, opts Options, root *obs.Span) error {
	if !opts.SkipCodegen || opts.Certify {
		start := time.Now()
		sp := root.Child("codegen")
		concrete, err := codegen.Build(res.Unit, res.Layout)
		if err != nil {
			sp.End()
			return fmt.Errorf("p4all: code generation: %w", err)
		}
		p4 := codegen.Render(concrete)
		sp.SetAttrs(obs.Int("p4_lines", strings.Count(p4, "\n")+1))
		sp.End()
		res.Concrete = concrete
		res.P4 = p4
		res.Phases.Codegen = time.Since(start)
	}
	if opts.Certify {
		start := time.Now()
		res.Certificate = tv.Validate(res.Unit, res.Layout, res.Concrete, tv.Options{
			Name:   opts.Name,
			Tracer: opts.Tracer,
		})
		res.Phases.Certify = time.Since(start)
	}
	return nil
}

// parseAttrs summarizes the resolved AST for the parse span.
func parseAttrs(u *lang.Unit) []obs.Attr {
	return []obs.Attr{
		obs.Int("symbolics", len(u.Symbolics)),
		obs.Int("registers", len(u.Registers)),
		obs.Int("actions", len(u.Actions)),
		obs.Int("invocations", len(u.Invocations)),
		obs.Int("loops", len(u.Loops)),
		obs.Int("assumes", len(u.Assumes)),
	}
}

// boundsAttrs records the unroll bound chosen for each loop symbolic
// and why (the §4.2 analysis result).
func boundsAttrs(b *unroll.Result) []obs.Attr {
	attrs := make([]obs.Attr, 0, 2*len(b.Order)+1)
	for _, sym := range b.Order {
		d := b.Details[sym]
		attrs = append(attrs, obs.Int("bound."+sym.Name, d.K), obs.String("why."+sym.Name, string(d.Why)))
	}
	return append(attrs, obs.Int("path_estimates", b.PathEstimates()))
}
