package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"p4all/internal/apps"
	"p4all/internal/check"
	"p4all/internal/codegen"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/tv"
	"p4all/internal/unroll"
)

// program is one compile input: source text and the per-stage memory of
// the paper's evaluation target it is compiled for.
type program struct {
	name    string
	source  string
	memBits int
}

// solvePrograms is the compile-solve set: NetCache at three of the
// Figure 12 memory points plus Precision. On each, branch-and-bound or
// the root LP is over 90 % of the compile and the validator about 1 %.
func solvePrograms() []program {
	nc := apps.NetCache(apps.NetCacheConfig{}).Source
	return []program{
		{"NetCache@1.0Mb", nc, pisa.Mb},
		{"NetCache@1.75Mb", nc, 7 * pisa.Mb / 4},
		{"NetCache@2.5Mb", nc, 5 * pisa.Mb / 2},
		{"Precision@1.75Mb", apps.Precision().Source, 7 * pisa.Mb / 4},
	}
}

// certifyPrograms is the compile-certify set: programs whose many
// sketch rows make the validator enumerate hundreds of paths while the
// solver finishes at the root.
func certifyPrograms() []program {
	return []program{
		{"SketchLearn@1.75Mb", apps.SketchLearn().Source, 7 * pisa.Mb / 4},
		{"ConQuest@1.75Mb", apps.ConQuest().Source, 7 * pisa.Mb / 4},
		{"CMS@0.25Mb", modules.StandaloneCMS(), pisa.Mb / 4},
	}
}

// benchSolver is the solver setting of every compile here: one worker
// in deterministic mode, so effort counts and layouts repeat exactly.
func benchSolver() ilp.Options { return ilp.Options{Deterministic: true, Threads: 1} }

// compileChecked is the end-to-end call: source text to a proved
// certificate through core.Compile. A compile error, an unproved
// certificate or a solver limit is a failed operation.
func compileChecked(r *result, p program) *core.Result {
	res, err := core.Compile(p.source, pisa.EvalTarget(p.memBits),
		core.Options{Certify: true, Name: p.name, Solver: benchSolver()})
	r.attempted++
	return checkCompile(r, p, res, err)
}

func checkCompile(r *result, p program, res *core.Result, err error) *core.Result {
	switch {
	case err != nil:
		r.fail(1, "%s: %v", p.name, err)
		return nil
	case !res.Certificate.Proved():
		r.fail(1, "%s: certificate %s", p.name, res.Certificate.Summary())
	case res.Layout.Stats.LimitHit:
		r.fail(1, "%s: solver stopped at a limit (gap %.4f)", p.name, res.Layout.Stats.Gap)
	}
	return res
}

// compileCounts are the counts one pass over a program set must repeat
// exactly: ILP size, solver effort, emitted lines, validator paths, and
// the objective values themselves.
type compileCounts struct {
	vars, constrs, boundSum                    int
	nodes, simplex, dual, fallbacks, refactors int
	rowsDropped                                int
	p4Lines, paths, pathsProved, tvFallbacks   int
	utilities                                  string // each objective, %v-formatted
}

func (c *compileCounts) add(res *core.Result) {
	if res == nil {
		return
	}
	st := res.Layout.Stats
	c.vars += st.Vars
	c.constrs += st.Constrs
	for _, k := range res.Bounds.LoopBound {
		c.boundSum += k
	}
	c.nodes += st.Nodes
	c.simplex += st.SimplexIter
	c.dual += st.DualIters
	c.fallbacks += st.PrimalFallbacks
	c.refactors += st.Refactors
	c.rowsDropped += st.Presolve.RowsDropped
	c.p4Lines += strings.Count(res.P4, "\n") + 1
	eq := res.Certificate.Equivalence
	c.paths += eq.Paths
	c.pathsProved += eq.PathsProved
	c.tvFallbacks += eq.Fallbacks
	c.utilities += fmt.Sprintf("%v ", res.Layout.Objective)
}

// utility is the geometric mean of the results' objectives.
func utility(results []*core.Result) float64 {
	var objs []float64
	for _, res := range results {
		if res != nil {
			objs = append(objs, res.Layout.Objective)
		}
	}
	return geomean(objs)
}

// untracedPass compiles every program once through core.Compile.
func untracedPass(r *result, progs []program) (compileCounts, float64) {
	var c compileCounts
	results := make([]*core.Result, len(progs))
	for i, p := range progs {
		results[i] = compileChecked(r, p)
		c.add(results[i])
	}
	return c, utility(results)
}

// compileLayers names the compile path's layers in core.compileUnit's
// order; stagedPass records one span per layer per program.
var compileLayers = []string{
	"lang.parse", "check.bounds", "unroll.bounds", "ilpgen.generate", "ilp.solve", "codegen.emit", "tv.validate",
}

// stagedPass compiles every program by calling the layers' public
// functions in the order core.Compile does, with a span around each. It
// returns the pass's counts and the seconds each layer took. The solver
// knobs are the defaults core.Options fills in (3 % gap, 4000 nodes,
// 90 s); the determinism check compares this pass's counts with
// core.Compile's, so a changed default shows as a mismatch.
func stagedPass(r *result, rec *recorder, progs []program) (compileCounts, map[string]float64) {
	var c compileCounts
	layer := map[string]float64{}
	solver := benchSolver()
	solver.Gap, solver.NodeLimit, solver.TimeLimit = 0.03, 4000, 90*time.Second
	for _, p := range progs {
		r.attempted++
		root := rec.start("core.compile", -1)
		timed := func(name string, f func() error) error {
			id := rec.start(name, root)
			err := f()
			layer[name] += rec.end(id)
			return err
		}
		res := &core.Result{Target: pisa.EvalTarget(p.memBits)}
		err := timed("lang.parse", func() (err error) {
			res.Unit, err = lang.ParseAndResolve(p.source)
			return
		})
		if err == nil {
			err = timed("check.bounds", func() error {
				res.Warnings = check.Bounds(res.Unit)
				return nil
			})
		}
		if err == nil {
			err = timed("unroll.bounds", func() (err error) {
				res.Bounds, err = unroll.UpperBounds(res.Unit, &res.Target)
				return
			})
		}
		if err == nil {
			err = timed("ilpgen.generate", func() (err error) {
				res.ILP, err = ilpgen.Generate(res.Unit, &res.Target, res.Bounds)
				return
			})
		}
		if err == nil {
			err = timed("ilp.solve", func() (err error) {
				res.Layout, err = res.ILP.Solve(solver)
				return
			})
		}
		if err == nil {
			err = timed("codegen.emit", func() (err error) {
				if res.Concrete, err = codegen.Build(res.Unit, res.Layout); err == nil {
					res.P4 = codegen.Render(res.Concrete)
				}
				return
			})
		}
		if err == nil {
			err = timed("tv.validate", func() error {
				res.Certificate = tv.Validate(res.Unit, res.Layout, res.Concrete, tv.Options{Name: p.name})
				return nil
			})
		}
		rec.end(root)
		c.add(checkCompile(r, p, res, err))
	}
	return c, layer
}

// runCompile measures source → certified layout over one program set.
//
// Untraced: set-up is one warm-up pass (repeated, median reported), then
// passes of core.Compile over the set until the time is up. Traced:
// untraced passes alternate with staged passes, whose layer spans must
// add up to the untraced pass beside them.
func runCompile(cfg config, progs []program) (*result, error) {
	r := newResult(cfg)
	type warm struct {
		counts  compileCounts
		utility float64
	}
	ref, err := repeatSetup(cfg, r, func() (warm, error) {
		c, u := untracedPass(r, progs)
		return warm{c, u}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	same := func(what string, c compileCounts) {
		if c != ref.counts {
			r.nondeterministic("%s pass counts %+v, warm-up pass %+v", what, c, ref.counts)
		}
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		walls := loopFor(budget, 1, func() {
			c, _ := untracedPass(r, progs)
			same("timed", c)
		})
		r.setMedian("op_ms", scale(walls, 1e3))
		r.set("ops_per_s", medianRate(walls, float64(len(progs))))
		r.set("layout_utility", ref.utility)
		r.set("peak_rss_mb", peakRSSMB())
		return r, nil
	}

	r.rec = newRecorder()
	var ms0, ms1 runtime.MemStats
	var allocMB, mallocs, layerSums []float64
	layers := map[string][]float64{}
	untraced, traced := pairs(budget, func() {
		runtime.ReadMemStats(&ms0)
		c, _ := untracedPass(r, progs)
		runtime.ReadMemStats(&ms1)
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		mallocs = append(mallocs, float64(ms1.Mallocs-ms0.Mallocs))
		same("untraced", c)
	}, func() {
		c, layer := stagedPass(r, r.rec, progs)
		same("staged", c)
		layerSum := 0.0
		for _, name := range compileLayers {
			layers[name] = append(layers[name], layer[name])
			layerSum += layer[name]
		}
		layerSums = append(layerSums, layerSum)
	})
	for _, name := range compileLayers {
		r.setMedian(name+"_s", layers[name])
	}
	r.set("core.layer_sum_ratio", medianRatio(layerSums, untraced))
	r.setMedian("core.alloc_mb_per_pass", allocMB)
	r.setMedian("core.mallocs_per_pass", mallocs)
	c := ref.counts
	r.set("ilpgen.vars", float64(c.vars))
	r.set("ilpgen.constrs", float64(c.constrs))
	r.set("unroll.bound_sum", float64(c.boundSum))
	r.set("ilp.bnb_nodes", float64(c.nodes))
	r.set("ilp.simplex_iters", float64(c.simplex))
	r.set("ilp.dual_iters", float64(c.dual))
	r.set("ilp.primal_fallbacks", float64(c.fallbacks))
	r.set("ilp.refactors", float64(c.refactors))
	r.set("ilp.presolve_rows_dropped", float64(c.rowsDropped))
	r.set("ilp.ns_per_simplex_iter", 1e9*median(layers["ilp.solve"])/float64(max(c.simplex, 1)))
	r.set("codegen.p4_lines", float64(c.p4Lines))
	r.set("tv.paths", float64(c.paths))
	r.set("tv.paths_proved", float64(c.pathsProved))
	r.set("tv.fallbacks", float64(c.tvFallbacks))
	r.set("tv.us_per_path", 1e6*median(layers["tv.validate"])/float64(max(c.paths, 1)))
	r.set("bench.trace_overhead_pct", 100*(medianRatio(traced, untraced)-1))
	finishTrace(r)
	return r, nil
}
