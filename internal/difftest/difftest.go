// Package difftest is the differential and metamorphic testing harness
// for the compiler pipeline: it executes the same elastic program under
// multiple independently derived configurations and demands
// bit-identical observable behavior. Seven oracles cover the pipeline's
// correctness surface:
//
//  1. layout invariance — one program with its symbolics pinned must
//     behave identically under every feasible stage placement (bigger
//     stage windows, more memory, different solver modes);
//  2. sim vs golden — compiled layouts replayed packet-for-packet
//     against the reference internal/structures implementations (the
//     shared hash contract makes the comparison exact);
//  3. snapshot round-trip — Snapshot/Restore at arbitrary stream
//     prefixes must not perturb subsequent outputs;
//  4. engine equivalence — the bytecode VM (exercised through its
//     batched replay path) must match the reference AST interpreter's
//     outputs, register end-state, and Stats counters for every packet,
//     on every program the repo ships, with a lowering fallback treated
//     as a failure;
//  5. migration soundness — elastic CMS state migration never
//     underestimates relative to a fresh sketch fed the same suffix;
//  6. translation validation — every compiled layout must certify:
//     the emitted program symbolically equivalent to its source and the
//     layout clean under the independent resource audit (internal/tv);
//  7. multi-tenant equivalence — each tenant of a jointly-compiled mix
//     (internal/multitenant) must behave bit-identically to the same
//     program compiled alone with its symbolics pinned to the joint
//     allocation, per-packet and in final register state.
//
// The harness is deterministic: every stream and every auxiliary
// choice derives from Config.Seed. cmd/difftest drives long offline
// runs; the fuzz targets in this package drive coverage-guided ones.
// See docs/DIFFTEST.md.
package difftest

import (
	"fmt"
	"io"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/sim"
)

// FieldSpec describes one packet field a generated stream populates.
type FieldSpec struct {
	// Name is the flattened header field, e.g. "pkt.flow".
	Name string
	// Width is the declared bit width; generated values are masked to
	// it.
	Width int
	// Key marks the field the app hashes on; it draws from the zipf
	// key stream rather than uniformly.
	Key bool
}

// AppSpec binds one benchmark application to everything the harness
// needs: its source, the packet fields a stream populates, a golden
// model, and where its migratable sketch shape lives in a layout.
type AppSpec struct {
	Name   string
	Source string
	Fields []FieldSpec
	// NewGolden builds the reference model for a solved layout. The
	// seed feeds any auxiliary state the model pre-loads (NetCache's
	// key-value store contents).
	NewGolden func(l *ilpgen.Layout, seed int64) (Golden, error)
	// MigrShape extracts the (rows, cols) shape oracle 5 migrates
	// between layouts.
	MigrShape func(l *ilpgen.Layout) (rows, cols int)
	// MigrSeed is the hash seed of the migrated sketch instance.
	MigrSeed uint64
}

// Golden is a reference model replayed beside the compiled pipeline.
type Golden interface {
	// SeedRegisters pre-loads pipeline register state the model
	// assumes (a no-op for models that start empty).
	SeedRegisters(p *sim.Pipeline) error
	// Process consumes one packet and predicts the observable fields
	// in Checks(). Absent fields predict zero.
	Process(pkt sim.Packet) map[string]uint64
	// Checks lists the output fields the model predicts.
	Checks() []string
}

// Specs returns the harness's application suite: the paper's four
// Figure 11 benchmarks.
func Specs() []AppSpec {
	return []AppSpec{netcacheSpec(), sketchlearnSpec(), precisionSpec(), conquestSpec()}
}

// engineSpecs returns the shipped programs beyond the suite: HashPipe,
// FlowRadar and the six standalone modules. They have no golden model
// (NewGolden is nil), so only the engine oracle runs them — which is
// what keeps every construct the module library emits, not just the
// four apps' motifs, under the VM-vs-interpreter comparison.
func engineSpecs() []AppSpec {
	key := FieldSpec{Name: "pkt.flow", Width: 32, Key: true}
	app := []FieldSpec{key, {Name: "pkt.len", Width: 16}}
	module := []FieldSpec{key, {Name: "pkt.payload", Width: 32}}
	return []AppSpec{
		{Name: "HashPipe", Source: apps.HashPipe().Source, Fields: app},
		{Name: "FlowRadar", Source: apps.FlowRadar().Source, Fields: app},
		{Name: "StandaloneCMS", Source: modules.StandaloneCMS(), Fields: module},
		{Name: "StandaloneBloom", Source: modules.StandaloneBloom(), Fields: module},
		{Name: "StandaloneKVS", Source: modules.StandaloneKVS(), Fields: module},
		{Name: "StandaloneHashTable", Source: modules.StandaloneHashTable(), Fields: module},
		{Name: "StandaloneCountingTable", Source: modules.StandaloneCountingTable(), Fields: module},
		{Name: "StandaloneIDTable", Source: modules.StandaloneIDTable(), Fields: module},
	}
}

func netcacheSpec() AppSpec {
	return AppSpec{
		Name:   "NetCache",
		Source: apps.NetCache(apps.NetCacheConfig{}).Source,
		Fields: []FieldSpec{
			{Name: "query.key", Width: 32, Key: true},
			{Name: "query.op", Width: 8},
			{Name: "ipv4.dst", Width: 32},
		},
		NewGolden: newNetCacheGolden,
		MigrShape: func(l *ilpgen.Layout) (int, int) {
			return int(l.Symbolic("cms_rows")), int(l.Symbolic("cms_cols"))
		},
		MigrSeed: 0,
	}
}

func sketchlearnSpec() AppSpec {
	return AppSpec{
		Name:   "SketchLearn",
		Source: apps.SketchLearn().Source,
		Fields: []FieldSpec{
			{Name: "pkt.flow", Width: 32, Key: true},
			{Name: "pkt.len", Width: 32},
		},
		NewGolden: newSketchLearnGolden,
		MigrShape: func(l *ilpgen.Layout) (int, int) {
			return int(l.Symbolic("lv0_rows")), int(l.Symbolic("lv0_cols"))
		},
		MigrSeed: 0,
	}
}

func precisionSpec() AppSpec {
	return AppSpec{
		Name:   "Precision",
		Source: apps.Precision().Source,
		Fields: []FieldSpec{
			{Name: "pkt.flow", Width: 32, Key: true},
			{Name: "pkt.len", Width: 16},
		},
		NewGolden: newPrecisionGolden,
		// Precision has no CMS module; oracle 5 migrates a sketch of
		// the hash table's solved shape instead, so every app still
		// exercises a layout-derived migration.
		MigrShape: func(l *ilpgen.Layout) (int, int) {
			return int(l.Symbolic("hh_stages")), int(l.Symbolic("hh_slots"))
		},
		MigrSeed: 0,
	}
}

func conquestSpec() AppSpec {
	return AppSpec{
		Name:   "ConQuest",
		Source: apps.ConQuest().Source,
		Fields: []FieldSpec{
			{Name: "pkt.flow", Width: 32, Key: true},
			{Name: "pkt.qdepth", Width: 32},
		},
		NewGolden: newConQuestGolden,
		MigrShape: func(l *ilpgen.Layout) (int, int) {
			return int(l.Symbolic("snap1_rows")), int(l.Symbolic("snap1_cols"))
		},
		MigrSeed: 8,
	}
}

// Oracle names accepted by Config.Oracles.
const (
	OracleLayout   = "layout"
	OracleGolden   = "golden"
	OracleSnapshot = "snapshot"
	OracleEngine   = "engine"
	OracleMigrate  = "migrate"
	OracleCertify  = "certify"
	OracleTenant   = "tenant"
)

// AllOracles lists every oracle in run order.
func AllOracles() []string {
	return []string{OracleGolden, OracleSnapshot, OracleEngine, OracleCertify, OracleLayout, OracleMigrate, OracleTenant}
}

// Config parameterizes one harness run.
type Config struct {
	// Seed derives every stream and auxiliary random choice.
	Seed int64
	// N is the packet count per stream. Zero means 1000.
	N int
	// Budgets are per-stage memory budgets (bits) to compile each app
	// at. Empty means {Mb/2, Mb, 2Mb}.
	Budgets []int
	// Apps filters the suite by name; empty runs all four, plus — under
	// the engine oracle only — the eight other programs the repo ships.
	Apps []string
	// Oracles filters the oracle set; empty runs all six.
	Oracles []string
	// Shrink minimizes failing streams before reporting.
	Shrink bool
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// maxLayoutRuns caps how many (app, budget) pairs run the
	// expensive layout-invariance oracle (each costs three extra ILP
	// solves) — the tier-1 slice's budget. Zero means no cap.
	maxLayoutRuns int
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 1000
	}
	if len(c.Budgets) == 0 {
		c.Budgets = []int{pisa.Mb / 2, pisa.Mb, 2 * pisa.Mb}
	}
	if len(c.Oracles) == 0 {
		c.Oracles = AllOracles()
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Failure is one oracle violation.
type Failure struct {
	App    string
	Oracle string
	Budget int
	// Detail describes the divergence (packet index, field, values).
	Detail string
	// Repro, when shrinking ran, holds a minimized packet stream that
	// still reproduces the failure.
	Repro string
}

func (f Failure) String() string {
	s := fmt.Sprintf("%s/%s @%dKb: %s", f.App, f.Oracle, f.Budget/1024, f.Detail)
	if f.Repro != "" {
		s += "\n" + f.Repro
	}
	return s
}

// Report aggregates a run.
type Report struct {
	Checks   int // oracle instances executed
	Packets  int // packets replayed across all pipelines
	Failures []Failure
}

// Ok reports a clean run.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

// baseSolver is the solve the harness compiles everything with by
// default: one branch-and-bound worker (repeatable layouts across runs
// and machines), with a relaxed 10% gap —
// differential testing needs a feasible layout, not an optimal one.
// Oracle 1 deliberately varies these knobs.
func baseSolver() core.Options {
	return core.Options{Solver: ilp.Options{Threads: 1, Gap: 0.1}, SkipCodegen: true}
}

// Run executes the configured oracles and returns the aggregate
// report. Compile or infrastructure errors (as opposed to oracle
// violations) return an error.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	specs, err := selectSpecs(cfg.Apps)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(cfg.Oracles))
	for _, o := range cfg.Oracles {
		want[o] = true
	}
	rep := &Report{}
	layoutRuns := 0
	for _, spec := range specs {
		stream := GenStream(spec, cfg.Seed, cfg.N)
		layouts := make([]*ilpgen.Layout, len(cfg.Budgets))
		for bi, budget := range cfg.Budgets {
			tgt := pisa.EvalTarget(budget)
			cfg.logf("compile %s @%dKb", spec.Name, budget/1024)
			res, err := core.Compile(spec.Source, tgt, baseSolver())
			if err != nil {
				return nil, fmt.Errorf("difftest: compile %s @%d: %w", spec.Name, budget, err)
			}
			layouts[bi] = res.Layout
			if want[OracleGolden] {
				checkGolden(rep, cfg, spec, res, budget, stream)
			}
			if want[OracleSnapshot] {
				checkSnapshot(rep, cfg, spec, res, budget, stream)
			}
			if want[OracleEngine] {
				checkEngines(rep, cfg, spec, res, budget, stream)
			}
			if want[OracleCertify] {
				checkCertify(rep, cfg, spec, res, budget)
			}
			if want[OracleLayout] && (cfg.maxLayoutRuns == 0 || layoutRuns < cfg.maxLayoutRuns) {
				layoutRuns++
				if err := checkLayoutInvariance(rep, cfg, spec, res, tgt, budget, stream); err != nil {
					return nil, err
				}
			}
		}
		if want[OracleMigrate] {
			for bi := range layouts {
				next := layouts[(bi+1)%len(layouts)]
				checkMigration(rep, cfg, spec, layouts[bi], next, cfg.Budgets[bi], stream)
			}
		}
	}
	if want[OracleEngine] && len(cfg.Apps) == 0 {
		for _, spec := range engineSpecs() {
			stream := GenStream(spec, cfg.Seed, cfg.N)
			for _, budget := range cfg.Budgets {
				cfg.logf("compile %s @%dKb", spec.Name, budget/1024)
				res, err := core.Compile(spec.Source, pisa.EvalTarget(budget), baseSolver())
				if err != nil {
					return nil, fmt.Errorf("difftest: compile %s @%d: %w", spec.Name, budget, err)
				}
				checkEngines(rep, cfg, spec, res, budget, stream)
			}
		}
	}
	if want[OracleTenant] {
		if err := checkTenantEquivalence(rep, cfg, specs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func selectSpecs(names []string) ([]AppSpec, error) {
	all := Specs()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]AppSpec, len(all))
	for _, s := range all {
		byName[s.Name] = s
	}
	var out []AppSpec
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("difftest: unknown app %q", n)
		}
		out = append(out, s)
	}
	return out, nil
}
