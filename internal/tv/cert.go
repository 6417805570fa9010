package tv

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
)

// CertSchema identifies the certificate JSON layout. Bump on any
// incompatible change; consumers (difftest, CI) check it.
const CertSchema = "p4all/tv/v1"

// VerdictProved and VerdictFailed are the two certificate verdicts.
// There is deliberately no third state: an obligation the validator
// cannot discharge is a failure, never a silent pass.
const (
	VerdictProved = "proved"
	VerdictFailed = "failed"
)

// SymbolicValue is one solved symbolic in the certificate.
type SymbolicValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Obligation is one undischarged proof obligation, with the number of
// enumerated paths it blocked.
type Obligation struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	Paths  int    `json:"paths"`
}

// EquivalenceReport summarizes the symbolic equivalence run.
type EquivalenceReport struct {
	// Paths is the number of source paths enumerated; PathsProved of
	// them discharged every obligation symbolically.
	Paths       int `json:"paths"`
	PathsProved int `json:"paths_proved"`
	// Decisions counts free branch decisions made; PrunedDecisions
	// counts branches discharged by interval analysis without forking.
	Decisions       int `json:"decisions"`
	PrunedDecisions int `json:"pruned_decisions"`
	// Fallbacks is the number of distinct residual obligations that
	// forced the concrete counterexample search; Samples is how many
	// concrete trials it ran.
	Fallbacks int `json:"fallbacks"`
	Samples   int `json:"samples,omitempty"`
	// Counterexample describes a concrete diverging input, when the
	// fallback search found one.
	Counterexample string       `json:"counterexample,omitempty"`
	Obligations    []Obligation `json:"obligations,omitempty"`
}

// Certificate is the machine-readable result of validating one compile.
// It contains no timestamps or host details: the same compile must
// yield byte-identical certificates on every run and machine.
type Certificate struct {
	Schema  string `json:"schema"`
	Program string `json:"program"`
	Target  string `json:"target"`
	// SourceSHA256 and P4SHA256 bind the certificate to the exact
	// source text and rendered P4 program it certifies.
	SourceSHA256 string `json:"source_sha256"`
	P4SHA256     string `json:"p4_sha256"`
	Verdict      string `json:"verdict"`

	Symbolics   []SymbolicValue   `json:"symbolics"`
	Equivalence EquivalenceReport `json:"equivalence"`
	Audit       AuditResult       `json:"audit"`
	// BoundsWarnings carries check.Bounds findings (advisory; they do
	// not affect the verdict — p4allc -bounds=error promotes them).
	BoundsWarnings []string `json:"bounds_warnings,omitempty"`
}

// Proved reports whether every obligation was discharged.
func (c *Certificate) Proved() bool { return c.Verdict == VerdictProved }

// Failures lists, one line each, what kept the certificate from being
// proved: every undischarged obligation, then every failed audit check.
// A proved certificate has none.
func (c *Certificate) Failures() []string {
	var out []string
	for _, ob := range c.Equivalence.Obligations {
		out = append(out, fmt.Sprintf("obligation %s: %s (%d paths)", ob.Kind, ob.Detail, ob.Paths))
	}
	for _, ch := range c.Audit.Checks {
		if !ch.OK {
			out = append(out, fmt.Sprintf("audit %s: %s", ch.Name, ch.Detail))
		}
	}
	return out
}

// JSON renders the certificate as stable, indented JSON with a
// trailing newline. All slices are sorted before marshaling, so equal
// certificates are byte-equal.
func (c *Certificate) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Summary is a one-line human rendering for CLI output.
func (c *Certificate) Summary() string {
	return fmt.Sprintf("tv: %s: verdict=%s paths=%d proved=%d pruned=%d obligations=%d audit-checks=%d",
		c.Program, c.Verdict, c.Equivalence.Paths, c.Equivalence.PathsProved,
		c.Equivalence.PrunedDecisions, len(c.Equivalence.Obligations), len(c.Audit.Checks))
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum)
}

// obligations converts the failure tally into the certificate's sorted
// listing.
func obligations(failures map[failure]int) []Obligation {
	out := make([]Obligation, 0, len(failures))
	for f, n := range failures {
		out = append(out, Obligation{Kind: f.Kind, Detail: f.Detail, Paths: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}
