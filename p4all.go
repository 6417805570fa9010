// Package p4all is a from-scratch reproduction of "Elastic Switch
// Programming with P4All" (Hogan, Landau-Feibish, Arashloo, Rexford,
// Walker, Harrison — HotNets 2020): an extension of P4 with symbolic
// values, elastic arrays, symbolic-bounded loops, and utility
// functions, plus an optimizing compiler that stretches elastic data
// structures to exactly fill a PISA target.
//
// The public API wraps the compiler pipeline:
//
//	target := p4all.EvalTarget(p4all.Mb)               // Fig. 3 parameters
//	res, err := p4all.Compile(source, target, p4all.Options{})
//	fmt.Println(res.Layout)                            // stage map + symbolic values
//	fmt.Println(res.P4)                                // concrete generated P4
//
// Elastic module sources (count-min sketch, Bloom filter, key-value
// store, hash table) are available through the Modules helpers, and
// compiled layouts can be executed packet-by-packet on the behavioral
// PISA pipeline via NewPipeline.
package p4all

import (
	"io"
	"time"

	"p4all/internal/check"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/sim"
	"p4all/internal/tv"
)

// Target re-exports the PISA target model (the paper's Figure 3
// parameters plus the Hf/Hl cost functions).
type Target = pisa.Target

// Mb is one megabit, the paper's per-stage memory unit.
const Mb = pisa.Mb

// EvalTarget returns the paper's §6.2 evaluation target (S=10, F=4,
// L=100, P=4096) with the given per-stage memory.
func EvalTarget(memBits int) Target { return pisa.EvalTarget(memBits) }

// RunningExampleTarget returns the tiny §4 example target (S=3).
func RunningExampleTarget() Target { return pisa.RunningExampleTarget() }

// TofinoLike returns a production-scale 12-stage target.
func TofinoLike() Target { return pisa.TofinoLike() }

// LoadTarget reads a JSON target specification.
func LoadTarget(path string) (Target, error) { return pisa.LoadTarget(path) }

// Options configures compilation; the zero value uses compiler
// defaults (3% certified optimality gap, 90 s solve budget).
type Options = core.Options

// SolverOptions tunes the ILP search (Options.Solver).
type SolverOptions = ilp.Options

// Result is a finished compilation: the resolved program, unroll
// bounds, generated ILP, solved layout, and concrete P4 text.
type Result = core.Result

// Layout is a solved placement: symbolic values, per-stage actions,
// register allocations, and resource usage.
type Layout = ilpgen.Layout

// ErrInfeasible reports that a program cannot fit its target under the
// declared assume constraints.
var ErrInfeasible = ilpgen.ErrInfeasible

// Certificate is a translation-validation certificate: the machine-
// checkable evidence that the generated concrete program is equivalent
// to the elastic source under the solved layout, plus an independent
// re-derivation of the layout's resource budgets. Produced when
// Options.Certify is set (Result.Certificate); see
// docs/TRANSLATION_VALIDATION.md.
type Certificate = tv.Certificate

// Compile runs the full P4All pipeline (parse → dependency analysis →
// unroll bounds → ILP → solve → code generation) on source.
func Compile(source string, target Target, opts Options) (*Result, error) {
	return core.Compile(source, target, opts)
}

// Exact requests provably optimal solving (no gap, generous limits).
func Exact() Options {
	return Options{Solver: ilp.Options{Gap: -1, NodeLimit: 200000, TimeLimit: time.Hour}}
}

// Pipeline executes a compiled layout packet-by-packet (the behavioral
// PISA data plane standing in for switch hardware).
type Pipeline = sim.Pipeline

// Packet carries header-field values into the pipeline, keyed by
// qualified field names such as "pkt.flow".
type Packet = sim.Packet

// NewPipeline builds an executable pipeline from a compilation result,
// on the default engine, the bytecode VM.
func NewPipeline(res *Result) (*Pipeline, error) {
	return sim.New(res.Unit, res.Layout)
}

// PacketView is the read-only per-packet output view Pipeline.Replay
// hands its sink; valid only until the sink returns.
type PacketView = sim.View

// FieldKey flattens a (field, instance) pair to its output-map key —
// precompute these outside Replay sinks.
func FieldKey(field string, idx int) string { return sim.Key(field, idx) }

// MetaValue reads a metadata field from a Process result: idx selects
// the instance of an elastic field, or -1 for scalars.
func MetaValue(out map[string]uint64, field string, idx int) (uint64, bool) {
	return sim.Meta(out, field, idx)
}

// PipelineStats counts the work a behavioral pipeline has performed:
// packets, register reads/writes, and per-stage ALU operations
// (Pipeline.Stats).
type PipelineStats = sim.Stats

// Tracer observes the compiler pipeline: set Options.Tracer to receive
// per-phase spans (parse, bounds, generate, solve, codegen) with size
// attributes plus ILP solver progress events. A nil *Tracer disables
// tracing at near-zero cost. See docs/OBSERVABILITY.md.
type Tracer = obs.Tracer

// TraceSink consumes trace records (spans, events, metrics).
type TraceSink = obs.Sink

// TraceAttr is one typed key/value attribute on a span or event.
type TraceAttr = obs.Attr

// NewTracer builds a tracer fanning out to the given sinks; with no
// sinks it returns nil, the disabled tracer.
func NewTracer(sinks ...TraceSink) *Tracer { return obs.New(sinks...) }

// NewJSONLTraceSink writes one JSON object per trace record to w.
func NewJSONLTraceSink(w io.Writer) TraceSink { return obs.NewJSONLSink(w) }

// NewSummaryTraceSink aggregates records and prints a human-readable
// table to w when the tracer is closed.
func NewSummaryTraceSink(w io.Writer) TraceSink { return obs.NewSummarySink(w) }

// ModuleInstance parameterizes one elastic library module.
type ModuleInstance = modules.Instance

// CountMinSketchModule returns the elastic CMS fragment (Figure 6).
func CountMinSketchModule(inst ModuleInstance) string { return modules.CountMinSketch(inst) }

// BloomFilterModule returns the elastic Bloom filter fragment.
func BloomFilterModule(inst ModuleInstance) string { return modules.BloomFilter(inst) }

// KeyValueStoreModule returns the elastic key-value store fragment.
func KeyValueStoreModule(inst ModuleInstance) string { return modules.KeyValueStore(inst) }

// HashTableModule returns the elastic hash table fragment.
func HashTableModule(inst ModuleInstance) string { return modules.HashTable(inst) }

// ComposeModules joins module fragments and glue into one program.
func ComposeModules(fragments ...string) string { return modules.Compose(fragments...) }

// ParseAndResolve runs only the front end, returning the resolved
// program (for tooling that inspects elastic structure without
// compiling).
func ParseAndResolve(source string) (*lang.Unit, error) {
	return lang.ParseAndResolve(source)
}

// BoundsWarning is one potentially out-of-bounds symbolic-array access
// found by CheckBounds.
type BoundsWarning = check.Warning

// CheckBounds statically verifies that every index used with an
// elastic array stays within the array's extent (the verification the
// paper's §7 proposes). A nil result means all accesses are proven
// safe.
func CheckBounds(u *lang.Unit) []BoundsWarning {
	return check.Bounds(u)
}
