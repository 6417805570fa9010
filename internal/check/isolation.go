package check

import (
	"fmt"
	"strings"

	"p4all/internal/ilp"
)

// IsolationViolation is one breach of the multi-tenant model
// partition: a constraint or variable that couples tenants outside the
// declared shared rows.
type IsolationViolation struct {
	Constraint string // offending constraint name ("" for a variable)
	Var        string // offending variable name, when one is implicated
	Reason     string
}

func (v IsolationViolation) String() string {
	switch {
	case v.Constraint != "" && v.Var != "":
		return fmt.Sprintf("constraint %s: variable %s: %s", v.Constraint, v.Var, v.Reason)
	case v.Constraint != "":
		return fmt.Sprintf("constraint %s: %s", v.Constraint, v.Reason)
	default:
		return fmt.Sprintf("variable %s: %s", v.Var, v.Reason)
	}
}

// scope returns the name's namespace (the segment before the first
// '/') and whether it has one.
func scope(name string) (string, bool) {
	i := strings.IndexByte(name, '/')
	if i < 0 {
		return "", false
	}
	return name[:i], true
}

// ModelIsolation audits a joint multi-tenant model against the
// partition GenerateJoint promises: every variable and constraint is
// namespaced to a tenant or to the shared "joint" scope, a
// tenant-scoped constraint mentions only that tenant's variables (no
// cross-tenant register, precedence, or PHV coupling), and only
// "joint"-scoped rows — the declared resource budgets, utility floors,
// and max-min links — may span tenants. A nil return means the model
// is properly partitioned.
//
// The audit is structural, not semantic: it proves no constraint row
// couples two tenants, which is exactly the property that makes the
// per-tenant difftest oracle sound (a tenant's feasible set depends on
// other tenants only through the joint resource rows).
func ModelIsolation(m *ilp.Model, tenants []string) []IsolationViolation {
	known := make(map[string]bool, len(tenants))
	for _, t := range tenants {
		known[t] = true
	}
	var out []IsolationViolation
	violate := func(constr, v, reason string, args ...interface{}) {
		out = append(out, IsolationViolation{
			Constraint: constr,
			Var:        v,
			Reason:     fmt.Sprintf(reason, args...),
		})
	}
	varScope := make([]string, m.NumVars())
	for i := 0; i < m.NumVars(); i++ {
		name := m.VarName(ilp.Var(i))
		s, ok := scope(name)
		switch {
		case !ok:
			violate("", name, "variable belongs to no tenant namespace")
		case s != "joint" && !known[s]:
			violate("", name, "variable namespace %q is not a declared tenant", s)
		default:
			varScope[i] = s
		}
	}
	m.EachConstr(func(name string, vars []int32, _ []float64, _ ilp.Op, _ float64) {
		s, ok := scope(name)
		switch {
		case !ok:
			violate(name, "", "constraint belongs to no tenant namespace")
			return
		case s == "joint":
			return // the declared shared rows may span tenants
		case !known[s]:
			violate(name, "", "constraint namespace %q is not a declared tenant", s)
			return
		}
		for _, v := range vars {
			if vs := varScope[v]; vs != s {
				violate(name, m.VarName(ilp.Var(v)),
					"tenant %s constraint couples a variable of tenant %s", s, vs)
			}
		}
	})
	return out
}
