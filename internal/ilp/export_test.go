package ilp

// Hooks for the external test package, which can import the model
// builders (apps, ilpgen) that this package cannot.
var (
	CheckFactorOnModel   = checkFactorOnModel
	SolveWithDebugChecks = solveWithDebugChecks
	SolveDiveChecked     = solveDiveChecked
)
