package main

import (
	"fmt"
	"runtime"
	"time"

	"p4all"
	"p4all/internal/core"
	"p4all/internal/difftest"
	"p4all/internal/pisa"
	"p4all/internal/serve"
	"p4all/internal/sim"
)

const (
	// replayStreamN packets per stream: long enough that frame set-up
	// amortizes and one Replay takes tens of milliseconds.
	replayStreamN = 65536
	// goldenN packets of each stream are checked against the app's
	// hand-written model on a fresh pipeline.
	goldenN = 8192
	// interpN packets per interpreter replay: the reference interpreter
	// runs about fifty times slower than the compiled engines.
	interpN = 4096
)

// replayApp is one compiled application ready to replay.
type replayApp struct {
	spec   difftest.AppSpec
	res    *core.Result
	pipe   *sim.Pipeline // the facade's default engine
	stream []sim.Packet
	key    string // output key the sink reads
}

// setupReplay compiles the four suite apps at 1 Mb per stage, lowers
// each onto the pipeline p4all.NewPipeline gives users, and generates
// its packet stream from the seed.
func setupReplay(cfg config, r *result, rec *recorder) ([]*replayApp, error) {
	var out []*replayApp
	for _, spec := range difftest.Specs() {
		id := rec.start("core.compile", -1)
		res := compileChecked(r, program{spec.Name + "@1Mb", spec.Source, pisa.Mb})
		rec.end(id)
		if res == nil {
			return nil, fmt.Errorf("%s did not compile", spec.Name)
		}
		id = rec.start("sim.lower", -1)
		pipe, err := p4all.NewPipeline(res)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		id = rec.start("difftest.gen_stream", -1)
		stream := difftest.GenStream(spec, cfg.seed, replayStreamN)
		rec.end(id)
		out = append(out, &replayApp{
			spec: spec, res: res, pipe: pipe, stream: stream,
			key: sim.Key(spec.Fields[0].Name, -1),
		})
	}
	return out, nil
}

// checkGolden replays the head of the app's stream on a fresh default
// pipeline beside the app's golden model (the hand-written structures,
// never the compiler under test) and counts every packet whose checked
// fields differ. It returns the fresh pipeline's statistics.
func checkGolden(r *result, app *replayApp, seed int64) (sim.Stats, error) {
	pipe, err := p4all.NewPipeline(app.res)
	if err != nil {
		return sim.Stats{}, err
	}
	golden, err := app.spec.NewGolden(app.res.Layout, seed)
	if err != nil {
		return sim.Stats{}, err
	}
	if err := golden.SeedRegisters(pipe); err != nil {
		return sim.Stats{}, err
	}
	checks := golden.Checks()
	head := app.stream[:min(goldenN, len(app.stream))]
	err = pipe.Replay(head, func(i int, v sim.View) error {
		want := golden.Process(head[i])
		r.attempted++
		for _, f := range checks {
			if got, _ := v.Get(f); got != want[f] {
				r.fail(1, "%s packet %d: %s = %d, golden model says %d", app.spec.Name, i, f, got, want[f])
				break
			}
		}
		return nil
	})
	return pipe.Stats(), err
}

// replayPass replays every app's stream once on the pipelines given,
// through a sink that reads the app's key field, and returns each
// replay's wall seconds. n bounds the packets per app (0: all).
func replayPass(r *result, rec *recorder, apps []*replayApp, pipes []*sim.Pipeline, n int) []float64 {
	walls := make([]float64, len(apps))
	for i, app := range apps {
		stream := app.stream
		if n > 0 && n < len(stream) {
			stream = stream[:n]
		}
		var sum uint64
		key := app.key
		sink := func(_ int, v sim.View) error {
			val, _ := v.Get(key)
			sum += val
			return nil
		}
		id := rec.start("sim.replay", -1)
		t := time.Now()
		err := pipes[i].Replay(stream, sink)
		walls[i] = time.Since(t).Seconds()
		rec.end(id)
		r.attempted++
		if err != nil {
			r.fail(1, "%s replay: %v", app.spec.Name, err)
		}
	}
	return walls
}

func defaultPipes(apps []*replayApp) []*sim.Pipeline {
	pipes := make([]*sim.Pipeline, len(apps))
	for i, app := range apps {
		pipes[i] = app.pipe
	}
	return pipes
}

// perAppMedian collects each app's replay walls across passes and returns the
// geometric mean over apps of the per-app median.
func perAppMedian(passes [][]float64) float64 {
	if len(passes) == 0 {
		return 0
	}
	meds := make([]float64, len(passes[0]))
	for a := range meds {
		col := make([]float64, len(passes))
		for p := range passes {
			col[p] = passes[p][a]
		}
		meds[a] = median(col)
	}
	return geomean(meds)
}

// runReplay measures the run time of the generated program: no solver
// and no sockets in the timed part, only Pipeline.Replay on the engine
// the facade hands out by default.
func runReplay(cfg config) (*result, error) {
	r := newResult(cfg)
	if cfg.trace {
		r.rec = newRecorder()
	}
	apps, err := repeatSetup(cfg, r, func() ([]*replayApp, error) { return setupReplay(cfg, r, r.rec) }, nil)
	if err != nil {
		return nil, err
	}
	var results []*core.Result
	stats := make([]sim.Stats, len(apps))
	for i, app := range apps {
		results = append(results, app.res)
		if stats[i], err = checkGolden(r, app, cfg.seed); err != nil {
			return nil, fmt.Errorf("%s golden check: %w", app.spec.Name, err)
		}
	}
	pipes := defaultPipes(apps)
	replayPass(r, nil, apps, pipes, 0) // settles lazily grown frames before timing
	budget := time.Duration(cfg.seconds * float64(time.Second))
	pkts := float64(len(apps) * replayStreamN)
	if !cfg.trace {
		var passes [][]float64
		walls := loopFor(budget, 1, func() { passes = append(passes, replayPass(r, nil, apps, pipes, 0)) })
		r.set("op_ms", 1e3*perAppMedian(passes))
		r.samples["op_ms"] = len(passes)
		r.set("ops_per_s", medianRate(walls, pkts))
		r.set("layout_utility", utility(results))
		r.set("peak_rss_mb", peakRSSMB())
		return r, nil
	}

	// The simulated statistics are counts of the program's own work and
	// must repeat exactly on a second fresh pipeline.
	var alu, reads, writes uint64
	for i, app := range apps {
		again, err := checkGolden(r, app, cfg.seed)
		if err != nil {
			return nil, err
		}
		if fmt.Sprint(again) != fmt.Sprint(stats[i]) {
			r.nondeterministic("%s statistics %v, first run %v", app.spec.Name, again, stats[i])
		}
		alu += stats[i].TotalALUOps()
		reads += stats[i].RegReads
		writes += stats[i].RegWrites
	}
	checked := float64(len(apps) * goldenN)
	r.set("sim.alu_ops_per_pkt", float64(alu)/checked)
	r.set("sim.reg_reads_per_pkt", float64(reads)/checked)
	r.set("sim.reg_writes_per_pkt", float64(writes)/checked)

	var untraced [][]float64
	var ms0, ms1 runtime.MemStats
	var mallocs []float64
	plainWalls, tracedWalls := pairs(2*budget/3, func() {
		runtime.ReadMemStats(&ms0)
		untraced = append(untraced, replayPass(r, nil, apps, pipes, 0))
		runtime.ReadMemStats(&ms1)
		mallocs = append(mallocs, float64(ms1.Mallocs-ms0.Mallocs)/pkts)
	}, func() { replayPass(r, r.rec, apps, pipes, 0) })
	r.set("sim.default.ns_per_pkt", 1e9*perAppMedian(untraced)/replayStreamN)
	r.setMedian("sim.replay.allocs_per_pkt", mallocs)
	r.set("bench.trace_overhead_pct", 100*(medianRatio(tracedWalls, plainWalls)-1))

	// The same layer used differently: each engine sim.ParseEngine still
	// accepts by name (a deleted engine reads 0 instead of breaking the
	// build), the per-packet map API, and the sharded runtime.
	slice := budget / 15
	fallbacks := 0
	for _, app := range apps {
		if app.pipe.Fallback() != nil {
			fallbacks++
		}
	}
	for _, name := range []string{"vm", "plan", "interp"} {
		eng, err := sim.ParseEngine(name)
		if err != nil {
			continue
		}
		enginePipes := make([]*sim.Pipeline, len(apps))
		for i, app := range apps {
			id := r.rec.start("sim.lower", -1)
			enginePipes[i], err = sim.NewEngine(app.res.Unit, app.res.Layout, eng)
			r.rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", app.spec.Name, name, err)
			}
			if enginePipes[i].EngineName() != name {
				fallbacks++
			}
		}
		n := replayStreamN
		if name == "interp" {
			n = interpN
		}
		var passes [][]float64
		loopFor(slice, 1, func() { passes = append(passes, replayPass(r, nil, apps, enginePipes, n)) })
		r.set("sim."+name+".ns_per_pkt", 1e9*perAppMedian(passes)/float64(n))
	}
	r.set("sim.fallback", float64(fallbacks))

	processWalls := loopFor(slice, 1, func() {
		for _, app := range apps {
			for _, pkt := range app.stream[:goldenN] {
				r.attempted++
				if _, err := app.pipe.Process(pkt); err != nil {
					r.fail(1, "%s Process: %v", app.spec.Name, err)
				}
			}
		}
	})
	r.set("sim.process.ns_per_pkt", 1e9*median(processWalls)/checked)

	nc := apps[0] // NetCache, the app the serving runtime shards by key
	rt, err := serve.NewSimRuntime(serve.SimConfig{
		Unit: nc.res.Unit, Layout: nc.res.Layout, Shards: 1, BatchSize: 256, KeyField: nc.spec.Fields[0].Name,
	})
	if err != nil {
		return nil, err
	}
	runtimeWalls := loopFor(slice, 1, func() {
		r.attempted++
		if err := rt.DispatchAll(nc.stream); err != nil {
			r.fail(1, "sim runtime dispatch: %v", err)
		}
		rt.Drain()
	})
	if err := rt.Close(); err != nil {
		r.fail(1, "sim runtime: %v", err)
	}
	r.set("serve.sim_runtime.ns_per_pkt", 1e9*median(runtimeWalls)/replayStreamN)

	var lower, gen []float64
	for _, s := range r.rec.spans {
		switch d := float64(s.End-s.Start) / 1e9; s.Name {
		case "sim.lower":
			lower = append(lower, d)
		case "difftest.gen_stream":
			gen = append(gen, d)
		}
	}
	r.setMedian("sim.lower_s", lower)
	r.setMedian("difftest.gen_stream_s", gen)
	finishTrace(r)
	return r, nil
}
