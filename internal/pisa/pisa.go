// Package pisa models Protocol Independent Switch Architecture (PISA)
// targets: the pipeline parameters of the paper's Figure 3 (stages,
// per-stage register memory, stateful/stateless ALUs, PHV bits) plus
// the per-action ALU cost functions Hf and Hl that a target
// specification must provide to the P4All compiler (§4.3).
//
// The P4All paper compiled against the proprietary Barefoot Tofino; the
// targets here are declarative stand-ins built from the same public
// parameters the paper's own target specification used.
package pisa

import (
	"encoding/json"
	"fmt"
	"os"
)

// Target describes one PISA pipeline: the Figure 3 parameters plus the
// optional extensions discussed in §4.4 of the paper.
type Target struct {
	// Name identifies the target in diagnostics and reports.
	Name string `json:"name"`
	// Stages is S, the number of match-action pipeline stages.
	Stages int `json:"stages"`
	// MemoryBits is M, register memory available per stage, in bits.
	MemoryBits int `json:"memory_bits"`
	// StatefulALUs is F, ALUs per stage that may access registers.
	StatefulALUs int `json:"stateful_alus"`
	// StatelessALUs is L, ALUs per stage for PHV-only actions.
	StatelessALUs int `json:"stateless_alus"`
	// PHVBits is P, the total packet header vector size in bits.
	PHVBits int `json:"phv_bits"`
	// FixedPHVBits is P_fixed, PHV bits consumed by inelastic
	// metadata and parsed headers; the elastic program components may
	// use at most PHVBits - FixedPHVBits (constraint #13).
	FixedPHVBits int `json:"fixed_phv_bits,omitempty"`
	// HashUnits, when positive, bounds hash computations per stage —
	// the §4.4 "hash function units" extension. Zero means unlimited.
	HashUnits int `json:"hash_units,omitempty"`
	// AllowRegisterSpread enables the §4.4 extension that lets one
	// logical register array span multiple consecutive stages.
	AllowRegisterSpread bool `json:"allow_register_spread,omitempty"`
	// Cost customizes the Hf/Hl ALU cost functions. A zero value
	// means DefaultCost.
	Cost ALUCost `json:"cost,omitempty"`
}

// ALUCost parameterizes the target-supplied Hf and Hl functions: how
// many stateful and stateless ALUs each primitive operation of an
// action consumes on this target.
type ALUCost struct {
	// PerRegisterAccess is the stateful-ALU cost of one register
	// read-modify-write (an Hf unit).
	PerRegisterAccess int `json:"per_register_access,omitempty"`
	// PerStatelessOp is the stateless-ALU cost of one PHV-writing
	// operation (an Hl unit). PISA ALUs execute a whole
	// source-operands-to-destination instruction, so the unit is the
	// assignment, not the arithmetic operator.
	PerStatelessOp int `json:"per_stateless_op,omitempty"`
	// PerHash is the stateless-ALU cost of one hash computation.
	// Hashing is performed by dedicated hash units on PISA targets
	// (bounded separately by Target.HashUnits), so the default is 0.
	PerHash int `json:"per_hash,omitempty"`
}

// DefaultCost is the cost model used when a target does not override
// it: one stateful ALU per register access, one stateless ALU per
// PHV-writing operation, and hashing on the dedicated hash units.
var DefaultCost = ALUCost{PerRegisterAccess: 1, PerStatelessOp: 1, PerHash: 0}

// EffectiveCost returns the target's cost model with zero fields
// replaced by defaults.
func (t *Target) EffectiveCost() ALUCost {
	c := t.Cost
	if c.PerRegisterAccess == 0 {
		c.PerRegisterAccess = DefaultCost.PerRegisterAccess
	}
	if c.PerStatelessOp == 0 {
		c.PerStatelessOp = DefaultCost.PerStatelessOp
	}
	if c.PerHash == 0 {
		c.PerHash = DefaultCost.PerHash
	}
	return c
}

// ActionProfile counts the budgeted units of the cost model
// (internal/sem): an action instance's static demand, or what executed
// code charged a stage. The target's Hf and Hl functions map a profile
// to ALU counts.
type ActionProfile struct {
	RegisterAccesses int // distinct register read/modify/write ops
	StatelessOps     int // PHV arithmetic, comparison, move ops
	Hashes           int // hash computations
}

// Add returns the sum of two profiles.
func (a ActionProfile) Add(b ActionProfile) ActionProfile {
	return ActionProfile{a.RegisterAccesses + b.RegisterAccesses, a.StatelessOps + b.StatelessOps, a.Hashes + b.Hashes}
}

// Hf returns the number of stateful ALUs action a requires on t
// (the target specification function Hf(a) of §4.3).
func (t *Target) Hf(a ActionProfile) int {
	return t.EffectiveCost().PerRegisterAccess * a.RegisterAccesses
}

// Hl returns the number of stateless ALUs action a requires on t
// (the target specification function Hl(a) of §4.3).
func (t *Target) Hl(a ActionProfile) int {
	c := t.EffectiveCost()
	return c.PerStatelessOp*a.StatelessOps + c.PerHash*a.Hashes
}

// TotalALUs returns (F + L) · S, the unrolling ALU budget of §4.2.
func (t *Target) TotalALUs() int {
	return (t.StatefulALUs + t.StatelessALUs) * t.Stages
}

// ElasticPHVBits returns P − P_fixed, the PHV budget available to
// elastic metadata (constraint #13).
func (t *Target) ElasticPHVBits() int {
	return t.PHVBits - t.FixedPHVBits
}

// Validate checks the target for internally consistent parameters.
func (t *Target) Validate() error {
	switch {
	case t.Stages <= 0:
		return fmt.Errorf("pisa: target %q: stages must be positive, got %d", t.Name, t.Stages)
	case t.MemoryBits < 0:
		return fmt.Errorf("pisa: target %q: memory_bits must be non-negative, got %d", t.Name, t.MemoryBits)
	case t.StatefulALUs < 0 || t.StatelessALUs < 0:
		return fmt.Errorf("pisa: target %q: ALU counts must be non-negative (F=%d, L=%d)", t.Name, t.StatefulALUs, t.StatelessALUs)
	case t.PHVBits <= 0:
		return fmt.Errorf("pisa: target %q: phv_bits must be positive, got %d", t.Name, t.PHVBits)
	case t.FixedPHVBits < 0 || t.FixedPHVBits > t.PHVBits:
		return fmt.Errorf("pisa: target %q: fixed_phv_bits %d outside [0, %d]", t.Name, t.FixedPHVBits, t.PHVBits)
	case t.HashUnits < 0:
		return fmt.Errorf("pisa: target %q: hash_units must be non-negative, got %d", t.Name, t.HashUnits)
	}
	return nil
}

// String renders a one-line summary.
func (t *Target) String() string {
	return fmt.Sprintf("%s: S=%d M=%db F=%d L=%d P=%d", t.Name, t.Stages, t.MemoryBits, t.StatefulALUs, t.StatelessALUs, t.PHVBits)
}

// Mb is one megabit, the unit the paper uses for per-stage memory.
const Mb = 1 << 20

// EvalTarget returns the target used throughout the paper's §6.2
// evaluation: ten stages, four stateful ALUs, 100 stateless ALUs, 4096
// PHV bits, with per-stage memory configurable (the Figure 12 sweep).
// The paper's Figure 13 uses memBits = 1.75 Mb.
func EvalTarget(memBits int) Target {
	return Target{
		Name:          "tofino-eval",
		Stages:        10,
		MemoryBits:    memBits,
		StatefulALUs:  4,
		StatelessALUs: 100,
		PHVBits:       4096,
	}
}

// RunningExampleTarget returns the tiny target of the paper's §4
// running example: three stages, 2048 bits of memory per stage, two
// stateful and two stateless ALUs, 4096 PHV bits.
func RunningExampleTarget() Target {
	return Target{
		Name:          "running-example",
		Stages:        3,
		MemoryBits:    2048,
		StatefulALUs:  2,
		StatelessALUs: 2,
		PHVBits:       4096,
	}
}

// TofinoLike returns a production-scale target modeled on public
// Barefoot Tofino documentation: 12 stages, 1.5 Mb of register memory
// per stage, 4 stateful ALUs, 120 stateless ALUs, 4096 PHV bits, and
// 6 hash units per stage.
func TofinoLike() Target {
	return Target{
		Name:          "tofino-like",
		Stages:        12,
		MemoryBits:    3 * Mb / 2,
		StatefulALUs:  4,
		StatelessALUs: 120,
		PHVBits:       4096,
		HashUnits:     6,
	}
}

// LoadTarget reads a JSON target specification from path.
func LoadTarget(path string) (Target, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Target{}, fmt.Errorf("pisa: reading target spec: %w", err)
	}
	return ParseTarget(data)
}

// ParseTarget decodes a JSON target specification.
func ParseTarget(data []byte) (Target, error) {
	var t Target
	if err := json.Unmarshal(data, &t); err != nil {
		return Target{}, fmt.Errorf("pisa: parsing target spec: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Target{}, err
	}
	return t, nil
}
