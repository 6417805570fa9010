package difftest

import (
	"fmt"

	"p4all/internal/codegen"
	"p4all/internal/core"
	"p4all/internal/tv"
)

// Oracle 5: translation validation. Every compile the harness performs
// must certify — the emitted concrete program must be symbolically
// equivalent to its source under the solved assignment, and the layout
// must pass the independent resource audit (see
// docs/TRANSLATION_VALIDATION.md). The harness compiles with
// SkipCodegen (the other oracles only need the layout), so this oracle
// runs code generation itself.
func checkCertify(rep *Report, cfg Config, spec AppSpec, res *core.Result, budget int) {
	rep.Checks++
	prog := res.Concrete
	if prog == nil {
		var err error
		prog, err = codegen.Build(res.Unit, res.Layout)
		if err != nil {
			rep.Failures = append(rep.Failures, Failure{
				App: spec.Name, Oracle: OracleCertify, Budget: budget,
				Detail: fmt.Sprintf("codegen: %v", err),
			})
			return
		}
	}
	cert := tv.Validate(res.Unit, res.Layout, prog, tv.Options{Name: spec.Name})
	if cert.Proved() {
		return
	}
	detail := cert.Summary()
	for _, f := range cert.Failures() {
		detail += "\n  " + f
	}
	rep.Failures = append(rep.Failures, Failure{
		App: spec.Name, Oracle: OracleCertify, Budget: budget, Detail: detail,
	})
}
