package ilp

import "testing"

// solvePropChecked solves m with debugProp on, so every node bound
// propagation closes is re-solved cold and must be LP-infeasible
// (checkPropPrune panics otherwise).
func solvePropChecked(t *testing.T, m *Model, opts Options) *Solution {
	t.Helper()
	debugChecks = debugProp
	defer func() { debugChecks = 0 }()
	sol, err := Solve(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}
