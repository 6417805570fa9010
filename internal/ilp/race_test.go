package ilp_test

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/ilp"
	"p4all/internal/modules"
	"p4all/internal/pisa"
)

// raceModel is one model of the root race's tests, with the root start
// a compile of it must report.
type raceModel struct {
	name  string
	model func(t *testing.T) *ilp.Model
	root  string
}

// raceModels are the benchmark's compile-certify programs, whose dual
// root is integral and wins, and two compile-solve programs, whose
// primal wins.
func raceModels() []raceModel {
	prog := func(src string, mem int) func(t *testing.T) *ilp.Model {
		return func(t *testing.T) *ilp.Model { return programModel(t, src, pisa.EvalTarget(mem)) }
	}
	return []raceModel{
		{"SketchLearn @ 1.75 Mb", prog(apps.SketchLearn().Source, 7*pisa.Mb/4), ilp.RootDual},
		{"ConQuest @ 1.75 Mb", prog(apps.ConQuest().Source, 7*pisa.Mb/4), ilp.RootDual},
		{"StandaloneCMS @ 0.25 Mb", prog(modules.StandaloneCMS(), pisa.Mb/4), ilp.RootDual},
		{"NetCache @ 1.0 Mb", func(t *testing.T) *ilp.Model { return netCacheModel(t) }, ilp.RootCold},
		{"Precision @ 1.75 Mb", prog(apps.Precision().Source, 7*pisa.Mb/4), ilp.RootCold},
	}
}

// compileOptions are the compiler's solver defaults (core.Options).
var compileOptions = ilp.Options{Gap: 0.03, NodeLimit: 4000}

// TestRootRaceDeterministic: the root race's verdict reads only the two
// sides' iteration counts, so a solve is the same whatever the number
// of cores the two sides share: the same root start, values, objective
// and effort, the losing side's iterations included, under GOMAXPROCS
// 1, 2 and 4. CI runs it under -race, many times over.
func TestRootRaceDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, rm := range raceModels() {
		m := rm.model(t)
		var want *ilp.Solution
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := ilp.Solve(m, compileOptions)
			if err != nil {
				t.Fatalf("%s: %v", rm.name, err)
			}
			if got.RootStart != rm.root || got.RaceIters == 0 {
				t.Errorf("%s at GOMAXPROCS %d: root %q, %d race iterations; want %q and the loser's count",
					rm.name, procs, got.RootStart, got.RaceIters, rm.root)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Objective != want.Objective || got.Effort != want.Effort || got.RootStart != want.RootStart ||
				!slices.Equal(got.Values, want.Values) {
				t.Errorf("%s at GOMAXPROCS %d: root %s, objective %v, effort %+v; at 1: %s, %v, %+v (values equal: %v)",
					rm.name, procs, got.RootStart, got.Objective, got.Effort,
					want.RootStart, want.Objective, want.Effort, slices.Equal(got.Values, want.Values))
			}
		}
	}
}

// TestPrimalWonRootIsRaceFree: a solve the primal wins is the
// race-free solve field for field, but for the losing dual's count in
// RaceIters, so the dive and the tree search from the vertex they
// always did. A solve the dual wins ends at its root with the race-free
// objective, in at most the primal's iterations, and the primal is
// charged the dual's count. The drift cycle's cold model and NetCache at
// 1.25 Mb are two whose dual vertex is fractional: as the only root, it
// took them to 133 and 152 nodes.
func TestPrimalWonRootIsRaceFree(t *testing.T) {
	models := append(raceModels(),
		raceModel{"drift cold", func(t *testing.T) *ilp.Model { return twoTenantModel(t, 2) }, ilp.RootCold},
		raceModel{"NetCache @ 1.25 Mb", func(t *testing.T) *ilp.Model {
			return programModel(t, apps.NetCache(apps.NetCacheConfig{}).Source, pisa.EvalTarget(5*pisa.Mb/4))
		}, ilp.RootCold},
	)
	for _, rm := range models {
		opts := compileOptions
		if rm.name == "drift cold" {
			opts = driftOptions
		}
		raced, err := ilp.Solve(rm.model(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		alone, err := ilp.Solve(rm.model(t), ilp.WithoutRootRace(opts))
		if err != nil {
			t.Fatal(err)
		}
		if alone.RootStart != ilp.RootCold || alone.RaceIters != 0 {
			t.Fatalf("%s without the race: root %q, %d race iterations", rm.name, alone.RootStart, alone.RaceIters)
		}
		if raced.RootStart != rm.root {
			t.Errorf("%s: root %q, want %q", rm.name, raced.RootStart, rm.root)
		}
		if raced.RootStart == ilp.RootDual {
			if raced.Objective != alone.Objective || raced.Nodes != 1 || raced.SimplexIter != raced.RootIters ||
				raced.RootIters > alone.RootIters || raced.RaceIters != raced.RootIters {
				t.Errorf("%s: the dual won with objective %v in %d nodes, %d of %d iterations at the root, %d charged to the primal; alone the primal took %d root iterations to %v",
					rm.name, raced.Objective, raced.Nodes, raced.RootIters, raced.SimplexIter, raced.RaceIters, alone.RootIters, alone.Objective)
			}
			continue
		}
		if raced.RaceIters > raced.RootIters {
			t.Errorf("%s: the losing dual is charged %d iterations, past the primal's %d", rm.name, raced.RaceIters, raced.RootIters)
		}
		raced.RaceIters = 0
		if !reflect.DeepEqual(raced, alone) {
			t.Errorf("%s: the primal won, but the solve differs from the race-free one: %d nodes, %+v; alone %d, %+v",
				rm.name, raced.Nodes, raced.Effort, alone.Nodes, alone.Effort)
		}
	}
}
