package difftest

import (
	"fmt"
	"strings"
	"time"

	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/multitenant"
	"p4all/internal/pisa"
)

// --- oracle 7: multi-tenant per-tenant equivalence ----------------------

// checkTenantEquivalence is the soundness oracle for the joint
// multi-tenant compiler: each tenant of a jointly-optimized mix must
// behave bit-identically to the same program compiled ALONE with its
// symbolics pinned to the joint allocation. Sharing the pipeline may
// move a tenant's placement and shrink its structures, but it must
// never change what the tenant computes at the sizes it was given —
// that is exactly what check.ModelIsolation's structural partition
// promises, and this oracle tests it behaviorally: per-packet outputs
// and final register state are compared over the full stream.
//
// The mix is the first two selected apps (the oracle is skipped, with a
// log line, when fewer are selected); it runs once per harness run at
// the first configured budget — joint solves are the harness's most
// expensive compiles, so the budget matrix is not swept.
func checkTenantEquivalence(rep *Report, cfg Config, specs []AppSpec) error {
	if len(specs) < 2 {
		cfg.logf("tenant oracle skipped: needs 2 apps, have %d", len(specs))
		return nil
	}
	budget := cfg.Budgets[0]
	tgt := pisa.EvalTarget(budget)
	mixSpecs := specs[:2]
	mix := make([]multitenant.Tenant, len(mixSpecs))
	for i, s := range mixSpecs {
		mix[i] = multitenant.Tenant{Name: strings.ToLower(s.Name), Source: s.Source}
	}
	cfg.logf("joint compile %s+%s @%dKb", mix[0].Name, mix[1].Name, budget/1024)
	res, err := multitenant.Compile(mix, tgt, multitenant.Options{
		Solver:      ilp.Options{Threads: 1, Gap: 0.1, NodeLimit: 2000, TimeLimit: 2 * time.Minute},
		SkipCodegen: true,
	})
	if err != nil {
		return fmt.Errorf("difftest: joint compile: %w", err)
	}
	for i, spec := range mixSpecs {
		tr := res.Tenants[i]
		rep.Checks++
		cfg.logf("  tenant %s: solo pinned compile + replay", tr.Name)
		solo, err := core.Compile(pinnedSource(spec.Source, tr.Layout), tgt, baseSolver())
		if err != nil {
			return fmt.Errorf("difftest: tenant %s pinned solo compile: %w", tr.Name, err)
		}
		if d := diffSymbolics(tr.Layout, solo.Layout); d != "" {
			rep.Failures = append(rep.Failures, Failure{
				App: spec.Name, Oracle: OracleTenant, Budget: budget,
				Detail: "solo compile broke the joint allocation: " + d,
			})
			continue
		}
		stream := GenStream(spec, cfg.Seed, cfg.N)
		jointOuts, jointRegs, err := replayOutputs(spec, tr.Result, stream, cfg.Seed)
		if err != nil {
			return fmt.Errorf("difftest: tenant %s joint replay: %w", tr.Name, err)
		}
		soloOuts, soloRegs, err := replayOutputs(spec, solo, stream, cfg.Seed)
		if err != nil {
			return fmt.Errorf("difftest: tenant %s solo replay: %w", tr.Name, err)
		}
		rep.Packets += 2 * len(stream)
		detail := ""
		for p := range jointOuts {
			if d := diffOutputs(p, soloOuts[p], jointOuts[p]); d != nil {
				detail = "joint tenant diverged from solo compile: " + d.String()
				break
			}
		}
		if detail == "" {
			if d := diffSnapshots(soloRegs, jointRegs); d != "" {
				detail = "joint tenant register end-state: " + d
			}
		}
		if detail != "" {
			rep.Failures = append(rep.Failures, Failure{
				App: spec.Name, Oracle: OracleTenant, Budget: budget, Detail: detail,
			})
		}
	}
	return nil
}
