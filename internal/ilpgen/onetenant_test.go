package ilpgen

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/lang"
	"p4all/internal/modules"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

// shippedPrograms are the twelve programs the repo ships: the five
// applications, HashPipe, and the six standalone modules.
func shippedPrograms() [][2]string {
	var progs [][2]string
	for _, a := range append(apps.All(), apps.FlowRadar(), apps.HashPipe()) {
		progs = append(progs, [2]string{a.Name, a.Source})
	}
	return append(progs,
		[2]string{"StandaloneCMS", modules.StandaloneCMS()},
		[2]string{"StandaloneBloom", modules.StandaloneBloom()},
		[2]string{"StandaloneKVS", modules.StandaloneKVS()},
		[2]string{"StandaloneHashTable", modules.StandaloneHashTable()},
		[2]string{"StandaloneCountingTable", modules.StandaloneCountingTable()},
		[2]string{"StandaloneIDTable", modules.StandaloneIDTable()},
	)
}

// modelRows lists a model's rows in order as "name: expr op rhs", each
// name less prefix.
func modelRows(m *ilp.Model, prefix string) []string {
	var rows []string
	m.EachConstr(func(name string, vars []int32, coef []float64, op ilp.Op, rhs float64) {
		rows = append(rows, fmt.Sprintf("%s: %v %v %s %g", strings.TrimPrefix(name, prefix), vars, coef, op, rhs))
	})
	return rows
}

// modelVars lists a model's variables in order with their bounds, type
// and branch priority, each name less prefix. No program reads a
// variable's type or priority back, so ilp exports no accessor for
// them and the test reads the fields by reflection.
func modelVars(m *ilp.Model, prefix string) []string {
	data := reflect.ValueOf(m).Elem().FieldByName("vars")
	vars := make([]string, m.NumVars())
	for i := range vars {
		v := ilp.Var(i)
		lo, hi := m.VarBounds(v)
		typ := ilp.VarType(data.Index(i).FieldByName("typ").Int())
		pri := data.Index(i).FieldByName("pri").Int()
		vars[i] = fmt.Sprintf("%s [%g, %g] %v priority %d", strings.TrimPrefix(m.VarName(v), prefix), lo, hi, typ, pri)
	}
	return vars
}

// TestOneTenantMixIsTheProgramModel: a one-tenant GenerateJoint under the
// default fairness objective is Generate's model — the same rows in the
// same order, the same variables and the same objective — for every
// shipped program on the three built-in targets and the multi-tenant
// tests' 8-stage one, and where one rejects a pair, so does the other.
// Row order steers the simplex, so this is what lets a program compile
// as a one-tenant mix without moving its search.
func TestOneTenantMixIsTheProgramModel(t *testing.T) {
	targets := []pisa.Target{
		pisa.EvalTarget(pisa.Mb),
		pisa.RunningExampleTarget(),
		pisa.TofinoLike(),
		{Name: "mt-test", Stages: 8, MemoryBits: 1 << 18, StatefulALUs: 8, StatelessALUs: 64, PHVBits: 16 * 1024},
	}
	const prefix = "solo/"
	for _, p := range shippedPrograms() {
		for _, target := range targets {
			name := p[0] + " @ " + target.Name
			u, err := lang.ParseAndResolve(p[1])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bounds, err := unroll.UpperBounds(u, &target)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			prog, progErr := Generate(u, &target, bounds)
			joint, jointErr := GenerateJoint([]TenantUnit{{Name: strings.TrimSuffix(prefix, "/"), Unit: u, Bounds: bounds}}, &target)
			if (progErr == nil) != (jointErr == nil) {
				t.Errorf("%s: Generate error %v, one-tenant GenerateJoint error %v", name, progErr, jointErr)
				continue
			}
			if progErr != nil {
				continue
			}
			if err := joint.SetObjective(Fairness{}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := modelRows(joint.Model, prefix), modelRows(prog.Model, ""); !slices.Equal(got, want) {
				t.Errorf("%s: one-tenant mix has %d rows, the program %d; first difference at row %d", name, len(got), len(want), firstDiff(got, want))
			}
			if got, want := modelVars(joint.Model, prefix), modelVars(prog.Model, ""); !slices.Equal(got, want) {
				t.Errorf("%s: one-tenant mix has %d variables, the program %d; first difference at variable %d", name, len(got), len(want), firstDiff(got, want))
			}
			gotObj, gotSense := joint.Model.Objective()
			wantObj, wantSense := prog.Model.Objective()
			if gotObj.String() != wantObj.String() || gotSense != wantSense {
				t.Errorf("%s: objective %s %v, the program's %s %v", name, gotSense, gotObj, wantSense, wantObj)
			}
		}
	}
}

// firstDiff is the first index where a and b differ.
func firstDiff(a, b []string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
