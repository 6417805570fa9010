package difftest

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"p4all/internal/core"
	"p4all/internal/elastic"
	"p4all/internal/ilpgen"
	"p4all/internal/pisa"
	"p4all/internal/sim"
	"p4all/internal/structures"
)

// divergence pinpoints the first packet where two executions disagree.
type divergence struct {
	packet    int
	field     string
	got, want uint64
	// engine names the engine that produced got when the oracle
	// compares more than two (oracle 3); empty elsewhere.
	engine string
}

func (d *divergence) String() string {
	if d.engine != "" {
		return fmt.Sprintf("packet %d (%s): %s = %d, want %d", d.packet, d.engine, d.field, d.got, d.want)
	}
	return fmt.Sprintf("packet %d: %s = %d, want %d", d.packet, d.field, d.got, d.want)
}

// --- oracle 2: sim vs golden structures ---------------------------------

// replayGolden runs a stream through a fresh pipeline and the app's
// golden model side by side and returns the first divergence.
func replayGolden(spec AppSpec, res *core.Result, stream []sim.Packet, seed int64) (*divergence, error) {
	pipe, err := sim.New(res.Unit, res.Layout)
	if err != nil {
		return nil, err
	}
	golden, err := spec.NewGolden(res.Layout, seed)
	if err != nil {
		return nil, err
	}
	if err := golden.SeedRegisters(pipe); err != nil {
		return nil, err
	}
	checks := golden.Checks()
	for i, pkt := range stream {
		out, err := pipe.Process(pkt)
		if err != nil {
			return nil, fmt.Errorf("packet %d: %w", i, err)
		}
		want := golden.Process(pkt)
		for _, f := range checks {
			if out[f] != want[f] {
				return &divergence{packet: i, field: f, got: out[f], want: want[f]}, nil
			}
		}
	}
	return nil, nil
}

func checkGolden(rep *Report, cfg Config, spec AppSpec, res *core.Result, budget int, stream []sim.Packet) {
	rep.Checks++
	rep.Packets += len(stream)
	div, err := replayGolden(spec, res, stream, cfg.Seed)
	if err != nil {
		rep.Failures = append(rep.Failures, Failure{
			App: spec.Name, Oracle: OracleGolden, Budget: budget,
			Detail: "replay error: " + err.Error(),
		})
		return
	}
	if div == nil {
		return
	}
	f := Failure{App: spec.Name, Oracle: OracleGolden, Budget: budget, Detail: div.String()}
	if cfg.Shrink {
		min := Shrink(stream, func(s []sim.Packet) bool {
			d, err := replayGolden(spec, res, s, cfg.Seed)
			return err == nil && d != nil
		})
		f.Repro = reproNote(spec, cfg, min)
	}
	rep.Failures = append(rep.Failures, f)
}

// diffOutputs compares two output maps for one packet.
func diffOutputs(packet int, want, got map[string]uint64) *divergence {
	for f, w := range want {
		if got[f] != w {
			return &divergence{packet: packet, field: f, got: got[f], want: w}
		}
	}
	for f, g := range got {
		if _, ok := want[f]; !ok && g != 0 {
			return &divergence{packet: packet, field: f, got: g, want: 0}
		}
	}
	return nil
}

// --- oracle 1: layout invariance ----------------------------------------

// pinnedSource appends equality assumes fixing every solved symbolic,
// so variant compiles are forced to the same symbolic assignment and
// may only differ in placement.
func pinnedSource(src string, l *ilpgen.Layout) string {
	names := make([]string, 0, len(l.Symbolics))
	for name := range l.Symbolics {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(src)
	b.WriteString("\n// difftest: pin the base solve's symbolic assignment\n")
	for _, name := range names {
		fmt.Fprintf(&b, "assume %s == %d;\n", name, l.Symbolics[name])
	}
	return b.String()
}

// layoutVariant is one alternative target a pinned program is
// re-solved on.
type layoutVariant struct {
	name string
	tgt  func(pisa.Target) pisa.Target
}

func layoutVariants() []layoutVariant {
	// With every symbolic pinned the search space collapses, so these
	// re-solves are cheap.
	return []layoutVariant{
		{name: "stages+2", tgt: func(t pisa.Target) pisa.Target {
			t.Stages += 2
			t.Name += "+2stages"
			return t
		}},
		{name: "mem*2", tgt: func(t pisa.Target) pisa.Target {
			t.MemoryBits *= 2
			t.Name += "+2xmem"
			return t
		}},
	}
}

// replayOutputs runs the stream through a fresh pipeline for the
// compile result and returns every packet's outputs plus the final
// register state.
func replayOutputs(spec AppSpec, res *core.Result, stream []sim.Packet, seed int64) ([]map[string]uint64, *sim.Snapshot, error) {
	pipe, err := sim.New(res.Unit, res.Layout)
	if err != nil {
		return nil, nil, err
	}
	golden, err := spec.NewGolden(res.Layout, seed)
	if err != nil {
		return nil, nil, err
	}
	if err := golden.SeedRegisters(pipe); err != nil {
		return nil, nil, err
	}
	outs := make([]map[string]uint64, 0, len(stream))
	for i, pkt := range stream {
		out, err := pipe.Process(pkt)
		if err != nil {
			return nil, nil, fmt.Errorf("packet %d: %w", i, err)
		}
		outs = append(outs, out)
	}
	return outs, pipe.Snapshot(), nil
}

func checkLayoutInvariance(rep *Report, cfg Config, spec AppSpec, base *core.Result, tgt pisa.Target, budget int, stream []sim.Packet) error {
	pinned := pinnedSource(spec.Source, base.Layout)
	baseOuts, baseRegs, err := replayOutputs(spec, base, stream, cfg.Seed)
	if err != nil {
		return fmt.Errorf("difftest: %s base replay: %w", spec.Name, err)
	}
	rep.Packets += len(stream)
	for _, v := range layoutVariants() {
		rep.Checks++
		cfg.logf("  layout variant %s/%s", spec.Name, v.name)
		vres, err := core.Compile(pinned, v.tgt(tgt), baseSolver())
		if err != nil {
			return fmt.Errorf("difftest: %s pinned compile (%s): %w", spec.Name, v.name, err)
		}
		if d := diffSymbolics(base.Layout, vres.Layout); d != "" {
			rep.Failures = append(rep.Failures, Failure{
				App: spec.Name, Oracle: OracleLayout, Budget: budget,
				Detail: fmt.Sprintf("variant %s broke the pinned assignment: %s", v.name, d),
			})
			continue
		}
		vOuts, vRegs, err := replayOutputs(spec, vres, stream, cfg.Seed)
		if err != nil {
			return fmt.Errorf("difftest: %s variant %s replay: %w", spec.Name, v.name, err)
		}
		rep.Packets += len(stream)
		var div *divergence
		for i := range baseOuts {
			if div = diffOutputs(i, baseOuts[i], vOuts[i]); div != nil {
				break
			}
		}
		detail := ""
		if div != nil {
			detail = fmt.Sprintf("variant %s diverged: %s", v.name, div)
		} else if d := diffSnapshots(baseRegs, vRegs); d != "" {
			detail = fmt.Sprintf("variant %s register end-state: %s", v.name, d)
		}
		if detail == "" {
			continue
		}
		f := Failure{App: spec.Name, Oracle: OracleLayout, Budget: budget, Detail: detail}
		if cfg.Shrink && div != nil {
			min := Shrink(stream, func(s []sim.Packet) bool {
				a, _, err := replayOutputs(spec, base, s, cfg.Seed)
				if err != nil {
					return false
				}
				b, _, err := replayOutputs(spec, vres, s, cfg.Seed)
				if err != nil {
					return false
				}
				for i := range a {
					if diffOutputs(i, a[i], b[i]) != nil {
						return true
					}
				}
				return false
			})
			f.Repro = reproNote(spec, cfg, min)
		}
		rep.Failures = append(rep.Failures, f)
	}
	return nil
}

func diffSymbolics(a, b *ilpgen.Layout) string {
	for name, v := range a.Symbolics {
		if b.Symbolics[name] != v {
			return fmt.Sprintf("%s = %d, pinned %d", name, b.Symbolics[name], v)
		}
	}
	return ""
}

// diffSnapshots compares final register state across two executions of
// a pinned program.
func diffSnapshots(a, b *sim.Snapshot) string {
	for name, insts := range a.Regs {
		bi, ok := b.Regs[name]
		if !ok || len(bi) != len(insts) {
			return fmt.Sprintf("register %s: %d instances vs %d", name, len(insts), len(bi))
		}
		for i := range insts {
			if len(insts[i]) != len(bi[i]) {
				return fmt.Sprintf("register %s/%d: %d cells vs %d", name, i, len(insts[i]), len(bi[i]))
			}
			for c := range insts[i] {
				if insts[i][c] != bi[i][c] {
					return fmt.Sprintf("register %s/%d cell %d: %d vs %d", name, i, c, insts[i][c], bi[i][c])
				}
			}
		}
	}
	for name := range b.Regs {
		if _, ok := a.Regs[name]; !ok {
			return fmt.Sprintf("register %s only in variant", name)
		}
	}
	return ""
}

// --- oracle 3: engine equivalence ---------------------------------------

// errEngineDiverged aborts a VM replay as soon as the sink records a
// divergence — the rest of the stream can't add information.
var errEngineDiverged = errors.New("difftest: engine diverged")

// replayEngines runs the same stream through both engines: the
// reference AST interpreter (per-packet Process) and the bytecode VM
// (batched Replay — the production path, so struct-of-arrays batch
// execution sits under the oracle too). Beyond per-packet outputs, the
// final register state and every Stats counter must agree — the VM's
// charges are part of its contract — and each packet's charge to each
// stage must fit the layout's budget (overBudget). A lowering fallback
// is itself a failure (detail non-empty): every program the repo ships
// is expected to lower.
func replayEngines(spec AppSpec, res *core.Result, stream []sim.Packet, seed int64) (*divergence, string, error) {
	interp, err := sim.NewEngine(res.Unit, res.Layout, sim.EngineInterp)
	if err != nil {
		return nil, "", err
	}
	vmpipe, err := sim.New(res.Unit, res.Layout)
	if err != nil {
		return nil, "", err
	}
	if ferr := vmpipe.Fallback(); ferr != nil {
		return nil, "vm lowering fell back to the interpreter: " + ferr.Error(), nil
	}
	if spec.NewGolden != nil {
		// One golden seeds both pipelines with identical preconditions.
		golden, err := spec.NewGolden(res.Layout, seed)
		if err != nil {
			return nil, "", err
		}
		for _, pipe := range []*sim.Pipeline{interp, vmpipe} {
			if err := golden.SeedRegisters(pipe); err != nil {
				return nil, "", err
			}
		}
	}
	want := make([]map[string]uint64, len(stream))
	before := interp.Stats().ALUs
	for i, pkt := range stream {
		if want[i], err = interp.Process(pkt); err != nil {
			return nil, "", fmt.Errorf("interp packet %d: %w", i, err)
		}
		after := interp.Stats().ALUs
		if d := overBudget(res.Layout, before, after); d != "" {
			return nil, fmt.Sprintf("packet %d: %s", i, d), nil
		}
		before = after
	}
	var vdiv *divergence
	err = vmpipe.Replay(stream, func(i int, v sim.View) error {
		if d := diffOutputs(i, want[i], v.Map()); d != nil {
			d.engine = "vm"
			vdiv = d
			return errEngineDiverged
		}
		return nil
	})
	if vdiv != nil {
		return vdiv, "", nil
	}
	if err != nil {
		return nil, "", fmt.Errorf("vm replay: %w", err)
	}
	if d := diffSnapshots(interp.Snapshot(), vmpipe.Snapshot()); d != "" {
		return nil, "vm register end-state: " + d, nil
	}
	if d := diffStats(interp.Stats(), vmpipe.Stats()); d != "" {
		return nil, "vm stats: " + d, nil
	}
	return nil, "", nil
}

// diffStats compares the full counter set of two executions.
func diffStats(a, b sim.Stats) string {
	if a.Packets != b.Packets {
		return fmt.Sprintf("packets %d vs %d", a.Packets, b.Packets)
	}
	if a.RegReads != b.RegReads {
		return fmt.Sprintf("register reads %d vs %d", a.RegReads, b.RegReads)
	}
	if a.RegWrites != b.RegWrites {
		return fmt.Sprintf("register writes %d vs %d", a.RegWrites, b.RegWrites)
	}
	if len(a.ALUs) != len(b.ALUs) {
		return fmt.Sprintf("%d stages vs %d", len(a.ALUs), len(b.ALUs))
	}
	for i := range a.ALUs {
		if a.ALUs[i] != b.ALUs[i] {
			return fmt.Sprintf("stage %d charges %+v vs %+v", i, a.ALUs[i], b.ALUs[i])
		}
	}
	return ""
}

// overBudget reports the first stage that one packet, the difference
// between two Stats.ALUs snapshots, charged more than the layout
// budgets there (its StageUse) or than the target has: stateful and
// stateless ALUs through the target's Hf and Hl, hash units as counted.
// The simulator does not stop such a packet; this check is where the
// budget is enforced.
func overBudget(l *ilpgen.Layout, before, after []pisa.ActionProfile) string {
	t := l.Target
	for s := range after {
		c := pisa.ActionProfile{
			RegisterAccesses: after[s].RegisterAccesses - before[s].RegisterAccesses,
			StatelessOps:     after[s].StatelessOps - before[s].StatelessOps,
			Hashes:           after[s].Hashes - before[s].Hashes,
		}
		use := l.Stages[s]
		hf, hl := t.Hf(c), t.Hl(c)
		switch {
		case hf > use.Hf || hl > use.Hl || c.Hashes > use.Hashes:
			return fmt.Sprintf("stage %d charges %d stateful, %d stateless ALUs and %d hash units; the layout budgets %d, %d and %d",
				s, hf, hl, c.Hashes, use.Hf, use.Hl, use.Hashes)
		case hf > t.StatefulALUs || hl > t.StatelessALUs || t.HashUnits > 0 && c.Hashes > t.HashUnits:
			return fmt.Sprintf("stage %d charges %d stateful, %d stateless ALUs and %d hash units; the target has %d, %d and %d",
				s, hf, hl, c.Hashes, t.StatefulALUs, t.StatelessALUs, t.HashUnits)
		}
	}
	return ""
}

func checkEngines(rep *Report, cfg Config, spec AppSpec, res *core.Result, budget int, stream []sim.Packet) {
	rep.Checks++
	rep.Packets += 2 * len(stream)
	div, detail, err := replayEngines(spec, res, stream, cfg.Seed)
	if err != nil {
		rep.Failures = append(rep.Failures, Failure{
			App: spec.Name, Oracle: OracleEngine, Budget: budget,
			Detail: "replay error: " + err.Error(),
		})
		return
	}
	if div == nil && detail == "" {
		return
	}
	if detail == "" {
		detail = "engines diverged: " + div.String()
	}
	f := Failure{App: spec.Name, Oracle: OracleEngine, Budget: budget, Detail: detail}
	if cfg.Shrink && div != nil {
		min := Shrink(stream, func(s []sim.Packet) bool {
			d, _, err := replayEngines(spec, res, s, cfg.Seed)
			return err == nil && d != nil
		})
		f.Repro = reproNote(spec, cfg, min)
	}
	rep.Failures = append(rep.Failures, f)
}

// --- oracle 4: migration soundness --------------------------------------

// checkMigration feeds a stream prefix into a sketch shaped by one
// layout, migrates it to the next layout's shape carrying the window's
// hot keys, then verifies over the suffix that the migrated sketch
// never under-counts relative to a fresh sketch — the invariant the
// elastic controller's correctness rests on (history only adds).
func checkMigration(rep *Report, cfg Config, spec AppSpec, from, to *ilpgen.Layout, budget int, stream []sim.Packet) {
	rep.Checks++
	keyField := ""
	for _, f := range spec.Fields {
		if f.Key {
			keyField = f.Name
		}
	}
	keys := make([]uint64, len(stream))
	for i, pkt := range stream {
		key, _ := pkt.Get(keyField)
		keys[i] = key & mask32
	}
	cut := len(keys) / 2
	prefix, suffix := keys[:cut], keys[cut:]

	r1, c1 := spec.MigrShape(from)
	r2, c2 := spec.MigrShape(to)
	old, err := structures.NewCountMinSketchSeeded(r1, c1, spec.MigrSeed)
	if err != nil {
		rep.Failures = append(rep.Failures, Failure{App: spec.Name, Oracle: OracleMigrate, Budget: budget, Detail: err.Error()})
		return
	}
	for _, k := range prefix {
		old.Update(k)
	}
	hot := elastic.Summarize(prefix, 0, 64, 256).HotKeys
	migrated, err := elastic.MigrateCMS(old, r2, c2, hot)
	if err != nil {
		rep.Failures = append(rep.Failures, Failure{App: spec.Name, Oracle: OracleMigrate, Budget: budget, Detail: err.Error()})
		return
	}
	if migrated.Seed() != old.Seed() {
		rep.Failures = append(rep.Failures, Failure{
			App: spec.Name, Oracle: OracleMigrate, Budget: budget,
			Detail: fmt.Sprintf("migration %dx%d -> %dx%d dropped hash seed %d (got %d)", r1, c1, r2, c2, old.Seed(), migrated.Seed()),
		})
		return
	}
	fresh, err := structures.NewCountMinSketchSeeded(r2, c2, spec.MigrSeed)
	if err != nil {
		rep.Failures = append(rep.Failures, Failure{App: spec.Name, Oracle: OracleMigrate, Budget: budget, Detail: err.Error()})
		return
	}
	truth := make(map[uint64]uint32, len(suffix))
	for _, k := range suffix {
		migrated.Update(k)
		fresh.Update(k)
		truth[k]++
	}
	rep.Packets += len(keys)
	for k, n := range truth {
		m, f := migrated.Estimate(k), fresh.Estimate(k)
		if m < f || m < n {
			rep.Failures = append(rep.Failures, Failure{
				App: spec.Name, Oracle: OracleMigrate, Budget: budget,
				Detail: fmt.Sprintf("migration %dx%d -> %dx%d under-counts key %d: migrated %d, fresh %d, truth %d",
					r1, c1, r2, c2, k, m, f, n),
			})
			return
		}
	}
	// Carried hot keys must keep at least their pre-migration
	// estimates.
	for _, kc := range hot {
		if got, want := migrated.Estimate(kc.Key), old.Estimate(kc.Key); got < want {
			rep.Failures = append(rep.Failures, Failure{
				App: spec.Name, Oracle: OracleMigrate, Budget: budget,
				Detail: fmt.Sprintf("migration lost carried count for hot key %d: %d < %d", kc.Key, got, want),
			})
			return
		}
	}
}

// reproNote renders a shrunken stream with enough context to re-run
// it.
func reproNote(spec AppSpec, cfg Config, min []sim.Packet) string {
	return fmt.Sprintf("minimized to %d packets (app %s, seed %d):\n%s",
		len(min), spec.Name, cfg.Seed, formatStream(min))
}
