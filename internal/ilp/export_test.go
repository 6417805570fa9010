package ilp

// Hooks for the external test package, which can import the model
// builders (apps, ilpgen) that this package cannot.
var (
	CheckFactorOnModel   = checkFactorOnModel
	SolveWithDebugChecks = solveWithDebugChecks
	SolveDiveChecked     = solveDiveChecked
	SolvePropChecked     = solvePropChecked
)

// WithoutHeuristic returns o with the initial rounding dive turned off.
func WithoutHeuristic(o Options) Options {
	o.disableHeuristic = true
	return o
}

// WithoutPresolve returns o with the root presolve turned off.
func WithoutPresolve(o Options) Options {
	o.disablePresolve = true
	return o
}

// WithoutRootRace returns o with the root race turned off: every cold
// root LP is solved by the primal alone.
func WithoutRootRace(o Options) Options {
	o.disableRootRace = true
	return o
}
