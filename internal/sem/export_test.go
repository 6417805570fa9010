package sem

// The census (census_test.go, package sem_test) compiles programs, which
// this package's own tests cannot import; it runs on these.
var (
	ShippedPrograms = shippedPrograms
	CostSource      = costSource
)
