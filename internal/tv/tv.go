// Package tv is the translation validator: it certifies that one
// solved compile — an ilpgen.Layout plus the P4 text codegen rendered
// from it — faithfully implements its elastic source.
//
// Two independent halves feed one Certificate:
//
//   - Equivalence (eval.go): bounded symbolic execution of the unrolled
//     source (under the solved symbolic assignment) and of the rendered
//     text, parsed back into the P4All grammar, over a shared symbolic
//     packet and register file, both walking the layout's canonical
//     (stage, invocation order, iteration) schedule with the text's
//     apply block and declarations reconciled against it at setup. Every feasible path must agree on header
//     outputs, metadata, final register state, Stats counters, and
//     abort behavior. Residual obligations fall back to concrete
//     counterexample search and a failed verdict — never a silent pass.
//   - Audit (audit.go): re-derives stage, ALU, memory, register, and
//     PHV budgets from the layout and the source, checked directly
//     against the pisa target spec without trusting ilpgen's own
//     constraint matrix.
//
// See docs/TRANSLATION_VALIDATION.md for the exact semantics covered
// and the honest list of what is not proven.
package tv

import (
	"p4all/internal/check"
	"p4all/internal/codegen"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/obs"
)

// Options configures one validation run.
type Options struct {
	// Name labels the certificate (the app or file being compiled).
	Name string
	// Tracer receives tv.* spans and counters (nil disables).
	Tracer *obs.Tracer
}

// The validator's budgets.
const (
	// pathLimit bounds the number of enumerated source paths.
	// Exceeding it is a failed obligation.
	pathLimit = 1 << 16
	// decisionLimit bounds total free branch decisions; a backstop
	// against degenerate branch nests.
	decisionLimit = 4 * pathLimit
	// fallbackSamples is the number of concrete trials the
	// counterexample search runs per failed run.
	fallbackSamples = 64
)

// Validate certifies one compile: the text codegen.Render prints for
// prog. It never returns an error: every problem — a text that does not
// parse included, and the validator's own inability to model a
// construct — is an obligation in the certificate, and the verdict is
// proved only when nothing remains.
func Validate(u *lang.Unit, layout *ilpgen.Layout, prog *codegen.Concrete, opts Options) *Certificate {
	return validate(u, layout, codegen.Render(prog), opts, pathLimit, decisionLimit)
}

// validate certifies the emitted text under the given path and decision
// budgets.
func validate(u *lang.Unit, layout *ilpgen.Layout, text string, opts Options, paths, decisions int) *Certificate {
	if opts.Name == "" {
		opts.Name = "program"
	}
	span := opts.Tracer.StartSpan("tv.validate",
		obs.String("program", opts.Name),
		obs.String("target", layout.Target.Name))

	cert := &Certificate{
		Schema:       CertSchema,
		Program:      opts.Name,
		Target:       layout.Target.Name,
		SourceSHA256: sha256Hex(u.Source),
		P4SHA256:     sha256Hex(text),
	}
	for _, sym := range u.Symbolics {
		cert.Symbolics = append(cert.Symbolics, SymbolicValue{Name: sym.Name, Value: layout.Symbolics[sym.Name]})
	}
	for _, w := range check.Bounds(u) {
		cert.BoundsWarnings = append(cert.BoundsWarnings, w.String())
	}

	auditSpan := span.Child("tv.audit")
	cert.Audit = *Audit(u, layout)
	auditSpan.End()

	eqSpan := span.Child("tv.equivalence")
	// Cost counters: how large the interned DAG grew, how many schedule
	// steps the enumerated paths span from the root (what replaying
	// every path would execute) and how many the checkpointed
	// enumeration actually executed. They explain the validator's run
	// time and are not part of the certificate.
	var nodes, stepsReplayed, stepsExecuted int
	m, setupFail := newMachine(u, layout, text, paths, decisions)
	if setupFail != nil {
		cert.Equivalence = EquivalenceReport{
			Fallbacks:   1,
			Obligations: []Obligation{{Kind: setupFail.Kind, Detail: setupFail.Detail, Paths: 0}},
		}
	} else {
		eq := runEquivalence(m, fallbackSamples)
		nodes, stepsReplayed, stepsExecuted = eq.Nodes, eq.StepsReplayed, eq.StepsExecuted
		cert.Equivalence = EquivalenceReport{
			Paths:           eq.Paths,
			PathsProved:     eq.PathsProved,
			Decisions:       eq.Decisions,
			PrunedDecisions: eq.Pruned,
			Fallbacks:       eq.Fallbacks,
			Samples:         eq.Samples,
			Counterexample:  eq.Counterexample,
			Obligations:     obligations(eq.Failures),
		}
	}
	eqSpan.SetAttrs(
		obs.Int("paths", cert.Equivalence.Paths),
		obs.Int("obligations", len(cert.Equivalence.Obligations)),
		obs.Int("nodes", nodes),
		obs.Int("steps_replayed", stepsReplayed),
		obs.Int("steps_executed", stepsExecuted))
	eqSpan.End()

	if len(cert.Equivalence.Obligations) == 0 && !cert.Audit.Failed() {
		cert.Verdict = VerdictProved
	} else {
		cert.Verdict = VerdictFailed
	}

	if tr := opts.Tracer; tr != nil {
		tr.Counter("tv.paths").Add(int64(cert.Equivalence.Paths))
		tr.Counter("tv.decisions").Add(int64(cert.Equivalence.Decisions))
		tr.Counter("tv.pruned").Add(int64(cert.Equivalence.PrunedDecisions))
		tr.Counter("tv.fallbacks").Add(int64(cert.Equivalence.Fallbacks))
		tr.Counter("tv.nodes").Add(int64(nodes))
		tr.Counter("tv.steps_replayed").Add(int64(stepsReplayed))
		tr.Counter("tv.steps_executed").Add(int64(stepsExecuted))
		if !cert.Proved() {
			tr.Counter("tv.failed").Add(1)
		}
	}
	span.SetAttrs(obs.String("verdict", cert.Verdict))
	span.End()
	return cert
}
