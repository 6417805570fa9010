// Command p4allc is the P4All compiler: it reads an elastic .p4all
// program and a PISA target specification, computes the optimal
// symbolic assignment and stage layout, and emits the concrete P4
// program (the paper's Figure 8 toolchain).
//
// Usage:
//
//	p4allc -target eval -mem 1835008 -layout prog.p4all
//	p4allc -target spec.json -o prog.p4 prog.p4all
//	p4allc -app netcache -trace trace.jsonl -summary
//
// Multiple sources — several positional files, or a comma-separated
// -app list — switch the compiler into multi-tenant mode: the programs
// are compiled jointly into one pipeline (internal/multitenant), traded
// against each other by -weights under optional -minutil floors, with
// per-tenant P4 emitted separately:
//
//	p4allc -weights 1,2 -minutil 2048 a.p4all b.p4all
//	p4allc -app netcache,sketchlearn -maxmin -certify -layout
//	p4allc -app netcache,sketchlearn -o out.p4   # out.netcache.p4, ...
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/multitenant"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

func main() {
	var (
		targetFlag  = flag.String("target", "eval", "target spec: builtin name (eval, running-example, tofino) or a JSON file path")
		memFlag     = flag.Int("mem", 0, "override per-stage register memory (bits)")
		outFlag     = flag.String("o", "", "write the generated P4 program to this file (default stdout)")
		layoutFlag  = flag.Bool("layout", false, "print the stage layout report")
		statsFlag   = flag.Bool("stats", false, "print compile phases and ILP statistics")
		exactFlag   = flag.Bool("exact", false, "prove optimality (no MIP gap; may be slow)")
		gapFlag     = flag.Float64("gap", 0, "accepted optimality gap (default 0.03)")
		timeFlag    = flag.Duration("timeout", 0, "solver time limit (default 90s)")
		appFlag     = flag.String("app", "", "compile built-in benchmark apps (netcache, sketchlearn, precision, conquest, flowradar) instead of source files; a comma-separated list compiles jointly")
		traceFlag   = flag.String("trace", "", "write a JSONL pipeline trace to this file (see docs/OBSERVABILITY.md)")
		summaryFlag = flag.Bool("summary", false, "print an observability summary table to stderr")
		certifyFlag = flag.Bool("certify", false, "run the translation validator and fail unless the compile is proved (see docs/TRANSLATION_VALIDATION.md)")
		certFlag    = flag.String("cert", "", "write the equivalence certificate JSON to this file (implies -certify)")
		boundsFlag  = flag.String("bounds", "warn", "static bounds findings: warn (report) or error (fail the compile)")
		weightsFlag = flag.String("weights", "", "multi-tenant: comma-separated fairness weights, one per tenant (default 1 each; 0 keeps a tenant placed but never traded toward)")
		minutilFlag = flag.String("minutil", "", "multi-tenant: per-tenant utility floors — one value for all tenants or a comma-separated list")
		maxminFlag  = flag.Bool("maxmin", false, "multi-tenant: optimize max-min fairness over weighted utilities instead of the weighted sum")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: p4allc [flags] program.p4all\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *boundsFlag != "warn" && *boundsFlag != "error" {
		fatal(fmt.Errorf("-bounds must be warn or error, got %q", *boundsFlag))
	}
	if *certFlag != "" {
		*certifyFlag = true
	}
	tenants, err := loadTenants(*appFlag)
	if err != nil {
		fatal(err)
	}
	target, err := resolveTarget(*targetFlag, *memFlag)
	if err != nil {
		fatal(err)
	}
	tracer, err := obs.FromCLI(*traceFlag, *summaryFlag, os.Stderr)
	if err != nil {
		fatal(err)
	}
	if tracer == nil && *statsFlag && *certifyFlag {
		// -stats reports the validator's cost counters, which only a
		// tracer collects.
		tracer = obs.New(obs.NopSink{})
	}

	solver := ilp.Options{}
	if *exactFlag {
		solver = ilp.Options{Gap: -1, NodeLimit: 1 << 20, TimeLimit: time.Hour}
	}
	if *gapFlag > 0 {
		solver.Gap = *gapFlag
	}
	if *timeFlag > 0 {
		solver.TimeLimit = *timeFlag
	}

	if len(tenants) > 1 {
		err = applyFairnessFlags(tenants, *weightsFlag, *minutilFlag)
	} else if *weightsFlag != "" || *minutilFlag != "" || *maxminFlag {
		err = fmt.Errorf("-weights/-minutil/-maxmin need at least two tenants (several source files or -app a,b)")
	}
	if err != nil {
		fatal(err)
	}
	// One program is a one-tenant mix: the same compile as many.
	res, err := multitenant.Compile(tenants, target, multitenant.Options{
		Solver:  solver,
		MaxMin:  *maxminFlag,
		Certify: *certifyFlag,
		Tracer:  tracer,
	})
	if cerr := tracer.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "p4allc: trace:", cerr)
	}
	if err != nil {
		fatal(err)
	}
	progs, phases := res.Tenants, res.Phases

	// One report for one program or many. A joint compile names each
	// tenant in what it prints and fans -o and -cert out to one file per
	// tenant.
	joint := len(progs) > 1
	label := func(p *multitenant.TenantResult) string {
		if joint {
			return p.Name + ": "
		}
		return ""
	}
	fileFor := func(file string, p *multitenant.TenantResult) string {
		if joint {
			return insertTenantName(file, p.Name)
		}
		return file
	}
	warnings := 0
	for _, p := range progs {
		for _, w := range p.Warnings {
			fmt.Fprintf(os.Stderr, "p4allc: warning: %s%s\n", label(p), w)
			warnings++
		}
	}
	if *boundsFlag == "error" && warnings > 0 {
		fatal(fmt.Errorf("%d bounds warning(s) under -bounds=error", warnings))
	}
	if *layoutFlag {
		for _, p := range progs {
			if joint {
				fmt.Fprintf(os.Stderr, "==== tenant %s (utility %.0f) ====\n", p.Name, p.Utility)
			}
			fmt.Fprint(os.Stderr, p.Layout.String())
		}
	}
	if *statsFlag {
		fmt.Fprintln(os.Stderr, phasesLine(phases))
		fmt.Fprint(os.Stderr, solverStats(progs[0].Layout.Stats))
		for _, p := range progs {
			what := "unroll"
			if joint {
				fmt.Fprintf(os.Stderr, "  tenant %-14s utility %.0f\n", p.Name, p.Utility)
				what = "    unroll"
			}
			fmt.Fprintln(os.Stderr, unrollStats(what, p.Bounds))
		}
		if *certifyFlag {
			printCertifyStats(phases.Certify, tracer)
		}
	}
	if *certifyFlag {
		failed := false
		for _, p := range progs {
			cert := p.Certificate
			fmt.Fprintf(os.Stderr, "%s%s\n", label(p), cert.Summary())
			if *certFlag != "" {
				data, err := cert.JSON()
				if err != nil {
					fatal(err)
				}
				if err := os.WriteFile(fileFor(*certFlag, p), data, 0o644); err != nil {
					fatal(err)
				}
			}
			if !cert.Proved() {
				failed = true
				for _, f := range cert.Failures() {
					fmt.Fprintf(os.Stderr, "p4allc: %s%s\n", label(p), f)
				}
			}
		}
		if failed {
			fatal(fmt.Errorf("translation validation failed"))
		}
	}
	for _, p := range progs {
		if *outFlag == "" {
			if joint {
				fmt.Printf("// ==== tenant %s ====\n", p.Name)
			}
			fmt.Print(p.P4)
			continue
		}
		out := fileFor(*outFlag, p)
		if err := os.WriteFile(out, []byte(p.P4), 0o644); err != nil {
			fatal(err)
		}
		if joint {
			fmt.Fprintf(os.Stderr, "p4allc: wrote %s\n", out)
		}
	}
}

// loadTenants resolves the invocation's program list: built-in
// benchmark apps when -app was given (comma-separated), else the
// positional source files, each named by its file's base name. Two or
// more compile jointly.
func loadTenants(appList string) ([]multitenant.Tenant, error) {
	if appList != "" {
		if flag.NArg() != 0 {
			return nil, fmt.Errorf("-app %s and source files are mutually exclusive", appList)
		}
		var out []multitenant.Tenant
		for _, name := range strings.Split(appList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			found := false
			// FlowRadar rides along for multi-tenant mixes; apps.All()
			// stays the four Figure 11 benchmarks.
			for _, app := range append(apps.All(), apps.FlowRadar()) {
				if strings.EqualFold(app.Name, name) {
					out = append(out, multitenant.Tenant{Name: app.Name, Source: app.Source})
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("unknown app %q (builtin: netcache, sketchlearn, precision, conquest, flowradar)", name)
			}
		}
		if len(out) == 0 {
			return nil, fmt.Errorf("-app list is empty")
		}
		return out, nil
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var out []multitenant.Tenant
	seen := make(map[string]bool)
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		if name == "" || name == "joint" {
			return nil, fmt.Errorf("cannot derive a tenant name from %q", path)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate tenant name %q (from %s); tenant names derive from file basenames", name, path)
		}
		seen[name] = true
		out = append(out, multitenant.Tenant{Name: name, Source: string(src)})
	}
	return out, nil
}

// applyFairnessFlags parses -weights and -minutil onto the tenant list.
func applyFairnessFlags(tenants []multitenant.Tenant, weights, minutil string) error {
	if weights != "" {
		ws, err := parseFloats(weights)
		if err != nil {
			return fmt.Errorf("-weights: %w", err)
		}
		if len(ws) != len(tenants) {
			return fmt.Errorf("-weights has %d values for %d tenants", len(ws), len(tenants))
		}
		for i, w := range ws {
			if w == 0 {
				tenants[i].Weight = multitenant.Unweighted
			} else {
				tenants[i].Weight = w
			}
		}
	}
	if minutil != "" {
		fs, err := parseFloats(minutil)
		if err != nil {
			return fmt.Errorf("-minutil: %w", err)
		}
		switch len(fs) {
		case 1:
			for i := range tenants {
				tenants[i].MinUtility = fs[0]
			}
		case len(tenants):
			for i, f := range fs {
				tenants[i].MinUtility = f
			}
		default:
			return fmt.Errorf("-minutil has %d values for %d tenants (give one value or one per tenant)", len(fs), len(tenants))
		}
	}
	return nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// insertTenantName turns out.p4 into out.<tenant>.p4 so one -o flag
// fans out to per-tenant files. The null device stays itself — CI
// discards joint P4 with -o /dev/null.
func insertTenantName(path, name string) string {
	if path == os.DevNull {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + strings.ToLower(name) + ext
}

func resolveTarget(spec string, memOverride int) (pisa.Target, error) {
	var t pisa.Target
	switch strings.ToLower(spec) {
	case "eval":
		t = pisa.EvalTarget(7 * pisa.Mb / 4)
	case "running-example":
		t = pisa.RunningExampleTarget()
	case "tofino", "tofino-like":
		t = pisa.TofinoLike()
	default:
		var err error
		t, err = pisa.LoadTarget(spec)
		if err != nil {
			return t, err
		}
	}
	if memOverride > 0 {
		t.MemoryBits = memOverride
	}
	return t, t.Validate()
}

// phasesLine is -stats' first line: the time of every compile phase,
// then their total.
func phasesLine(p core.Phases) string {
	return fmt.Sprintf("phases: parse=%v bounds=%v generate=%v isolate=%v solve=%v codegen=%v certify=%v (total %v)",
		p.Parse, p.Bounds, p.Generate, p.Isolate, p.Solve, p.Codegen, p.Certify, p.Total())
}

// solverStats is -stats' ILP block: the model's size, the search's
// effort and which warm start seeded its incumbent, the simplex
// iterations with the dual path's share, those iterations split by
// caller (root LP, with how it started; diving heuristic, with whether
// it found a point; neighbourhood search, with its nodes and whether it
// found a point; tree, with the incumbents it found) beside the warm
// restarts, and the root presolve's reductions.
func solverStats(st ilpgen.Stats) string {
	return fmt.Sprintf("ILP: %d variables, %d constraints, %d nodes, certified gap %.2f%%, warm start %s\n"+
		"solver: %d simplex iters (%d dual, %d primal fallbacks), %d refactorizations\n"+
		"lp iters: root %d (%s), dive %d (%s), neighbourhood %d (%d nodes, %s), tree %d (found %d); %d warm restarts, %d warm fallbacks\n"+
		"presolve: %d bounds tightened, %d variables fixed, %d rows dropped\n",
		st.Vars, st.Constrs, st.Nodes, 100*st.Gap, st.Seed(),
		st.SimplexIter, st.DualIters, st.PrimalFallbacks, st.Refactors,
		st.RootIters, st.RootStart, st.DiveIters, outcome(st.DiveIters > 0, st.DiveFound),
		st.NeighbourIters, st.NeighbourNodes, outcome(st.NeighbourNodes > 0, st.NeighbourFound), st.TreeIters, st.TreeFound,
		st.WarmRestarts, st.WarmFallbacks,
		st.Presolve.BoundsTightened, st.Presolve.VarsFixed, st.Presolve.RowsDropped)
}

// outcome says what the dive or the neighbourhood search after it did:
// nothing (it did not run), or whether it found a better point.
func outcome(ran bool, found int) string {
	switch {
	case found > 0:
		return "found a point"
	case ran:
		return "found none"
	default:
		return "not run"
	}
}

// unrollStats says why each loop symbolic got the bound it did (§4.2):
// the bound, the criterion that fixed it, the dependency graphs built
// on the way, and how many of their longest paths were estimated
// instead of searched to the end.
func unrollStats(label string, b *unroll.Result) string {
	bounds := strings.ReplaceAll(b.String(), "\n", "; ")
	return fmt.Sprintf("%s: %spath_estimates=%d", label, bounds, b.PathEstimates())
}

// printCertifyStats says why certification took the time it did: the
// validator's tv.* counters, summed over the programs of a joint compile
// (see docs/OBSERVABILITY.md).
func printCertifyStats(d time.Duration, tr *obs.Tracer) {
	count := func(name string) int64 { return tr.Counter(name).Value() }
	fmt.Fprintf(os.Stderr, "certify: %v for %d paths (%d decisions, %d pruned), %d of %d spanned schedule steps executed, %d symbolic nodes\n",
		d, count("tv.paths"), count("tv.decisions"), count("tv.pruned"), count("tv.steps_executed"), count("tv.steps_replayed"), count("tv.nodes"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p4allc:", err)
	os.Exit(1)
}
