package ilpgen

import (
	"fmt"
	"math"
	"strings"

	"p4all/internal/ilp"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/unroll"
)

// TenantUnit names one tenant's resolved unit and unroll bounds for a
// joint multi-tenant compile.
type TenantUnit struct {
	Name   string
	Unit   *lang.Unit
	Bounds *unroll.Result
}

// Joint is K tenant programs generated into one shared model over one
// PISA target. Each tenant's variables and structural constraints
// (placement, precedence, exclusion, memory coupling, assumes) carry
// that tenant's name prefix and mention only that tenant's variables —
// isolation by construction. Only the "joint/"-prefixed rows (the
// per-stage memory/ALU/hash budgets, the PHV budget, utility floors,
// and the max-min linking rows) and the objective span tenants; they
// are the single place the tenants compete, and internal/check's
// ModelIsolation audit verifies exactly this partition. A lone tenant
// competes with no one: it keeps its budget rows, so a one-tenant mix
// is the program's model (Generate's) row for row.
type Joint struct {
	Target  *pisa.Target
	Model   *ilp.Model
	Names   []string
	Tenants []*ILP

	floorsSet, objSet bool
}

// jointPrefix tags every cross-tenant row and variable in the shared
// model; internal/check's isolation audit keys on it.
const jointPrefix = "joint"

// GenerateJoint builds one shared ILP for K tenants against the
// target. Tenant order is significant: variables are generated tenant
// by tenant in the given order, so two GenerateJoint calls with the
// same tenant list produce identical models and their solutions align
// as warm starts (the multi-unit extension of the single-unit
// warm-start alignment guarantee).
func GenerateJoint(tenants []TenantUnit, target *pisa.Target) (*Joint, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("ilpgen: joint compile needs at least one tenant")
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(tenants))
	for _, t := range tenants {
		switch {
		case t.Name == "":
			return nil, fmt.Errorf("ilpgen: joint tenant has no name")
		case strings.Contains(t.Name, "/"):
			return nil, fmt.Errorf("ilpgen: tenant name %q may not contain '/'", t.Name)
		case t.Name == jointPrefix:
			return nil, fmt.Errorf("ilpgen: tenant name %q is reserved", t.Name)
		case seen[t.Name]:
			return nil, fmt.Errorf("ilpgen: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
	}
	model := ilp.NewModel("joint")
	defer model.SetNamePrefix("")
	// A lone tenant emits its budget rows itself, where Generate does.
	// Row order steers the simplex, so any other place for them would
	// search a one-tenant mix differently from its program.
	var shared *sharedRows
	if len(tenants) > 1 {
		shared = newSharedRows(target.Stages)
	}
	j := &Joint{Target: target, Model: model}
	for _, t := range tenants {
		model.SetNamePrefix(t.Name)
		p, err := generateInto(t.Unit, target, t.Bounds, model, shared)
		if err != nil {
			return nil, fmt.Errorf("ilpgen: tenant %s: %w", t.Name, err)
		}
		j.Names = append(j.Names, t.Name)
		j.Tenants = append(j.Tenants, p)
	}
	if shared == nil {
		return j, nil
	}
	// The joint budget rows: one row per stage per resource, summing
	// every tenant's usage against the physical limit.
	model.SetNamePrefix(jointPrefix)
	M := float64(target.MemoryBits)
	for s := 0; s < target.Stages; s++ {
		if shared.mem[s].Len() > 0 {
			model.AddConstr(fmt.Sprintf("mem-stage[%d]", s), shared.mem[s], ilp.LE, M)
		}
		if shared.hf[s].Len() > 0 {
			model.AddConstr(fmt.Sprintf("alu-f[%d]", s), shared.hf[s], ilp.LE, float64(target.StatefulALUs))
		}
		if shared.hl[s].Len() > 0 {
			model.AddConstr(fmt.Sprintf("alu-l[%d]", s), shared.hl[s], ilp.LE, float64(target.StatelessALUs))
		}
		if target.HashUnits > 0 && shared.hash[s].Len() > 0 {
			model.AddConstr(fmt.Sprintf("hash[%d]", s), shared.hash[s], ilp.LE, float64(target.HashUnits))
		}
	}
	phvBudget := target.ElasticPHVBits() - shared.fixedPHV
	if phvBudget < 0 {
		return nil, fmt.Errorf("ilpgen: tenants' fixed headers and metadata need %d PHV bits, exceeding the %d available",
			shared.fixedPHV, target.ElasticPHVBits())
	}
	if shared.phv.Len() > 0 {
		model.AddConstr("phv", shared.phv, ilp.LE, float64(phvBudget))
	}
	return j, nil
}

// Clone returns a copy of the joint model for a solve under its own
// objective: SetFloors and SetObjective on the copy add the floor and
// max-min rows and the objective to the copy only, and replace
// utilities in the copy's tenants only. The copy shares the rows
// (ilp.Model.Clone), with the floors set so far, and the tenants'
// generated slices, which are read-only once generated; its tenants
// point at the copy's model.
func (j *Joint) Clone() *Joint {
	c := *j
	c.Model = j.Model.Clone()
	c.Tenants = make([]*ILP, len(j.Tenants))
	for i, p := range j.Tenants {
		t := *p
		t.Model = c.Model
		c.Tenants[i] = &t
	}
	return &c
}

// Fairness configures the joint objective over the tenants' utilities.
type Fairness struct {
	// Weights scales each tenant's utility in the weighted-sum
	// objective (parallel to the tenant list; nil means weight 1 for
	// everyone). A zero-weight tenant contributes no objective columns
	// at all — it is allocated only what its assumes, floors, and
	// leftover capacity force, never traded for.
	Weights []float64
	// MinUtility adds a per-tenant floor row utility_t >= MinUtility[t]
	// (nil or entries <= 0 add no row) — the per-tenant
	// minimum-allocation guarantee.
	MinUtility []float64
	// MaxMin switches to max-min fairness: maximize z subject to
	// z <= Weights[t]*utility_t for every positively-weighted tenant,
	// with a tiny weighted-sum tiebreaker (1e-6) so capacity the
	// minimum tenant cannot use still goes somewhere. The achieved
	// minimum is approximate to within the solver gap and tiebreaker.
	MaxMin bool
	// Utilities replaces a tenant's utility — its program's optimize
	// declaration — with an expression over its symbolic values,
	// linearized as an optimize declaration is (parallel to the tenant
	// list; nil, or a nil entry, keeps the program's own). Floors,
	// weights and the layout's Utilities all use the replacement.
	Utilities []lang.Expr
}

// SetFloors installs the part of f that adds rows but no objective:
// each tenant's replacement utility (f.Utilities) and its floor row
// (f.MinUtility); f's weights and max-min switch are SetObjective's. It
// may be called once per Joint, before SetObjective. A loop that
// re-solves under new weights sets the floors once, on a clone it
// keeps, and solves clones of that: every solve then has the same rows,
// which the solver lowers once (ilp.Solve).
func (j *Joint) SetFloors(f Fairness) error {
	if j.floorsSet || j.objSet {
		return fmt.Errorf("ilpgen: joint floors already set (regenerate the model to change them)")
	}
	K := len(j.Tenants)
	if f.MinUtility != nil && len(f.MinUtility) != K {
		return fmt.Errorf("ilpgen: %d utility floors for %d tenants", len(f.MinUtility), K)
	}
	if f.Utilities != nil && len(f.Utilities) != K {
		return fmt.Errorf("ilpgen: %d utilities for %d tenants", len(f.Utilities), K)
	}
	for t, e := range f.Utilities {
		if e == nil {
			continue
		}
		// Every symbolic's variables exist once generated, so this adds
		// no variable to the model or to the generator's shared maps.
		util, err := j.Tenants[t].linearize(e)
		if err != nil {
			return fmt.Errorf("ilpgen: tenant %s utility: %w", j.Names[t], err)
		}
		j.Tenants[t].util, j.Tenants[t].utilSrc = util, e
	}
	j.Model.SetNamePrefix(jointPrefix)
	defer j.Model.SetNamePrefix("")
	for t, floor := range f.MinUtility {
		if floor > 0 {
			j.Model.AddConstr(fmt.Sprintf("minutil[%s]", j.Names[t]), j.Tenants[t].util, ilp.GE, floor)
		}
	}
	j.floorsSet = true
	return nil
}

// SetObjective installs the fairness objective: the weighted sum of the
// tenants' utilities, or the max-min variable with its linking rows.
// Unless SetFloors ran first, it installs f's utilities and floors as
// SetFloors does; after SetFloors, f must carry neither. It must be
// called exactly once per Joint, before Solve. The max-min rows carry
// the weights, so under MaxMin every reweight changes the rows.
func (j *Joint) SetObjective(f Fairness) error {
	if j.objSet {
		return fmt.Errorf("ilpgen: joint objective already set (regenerate the model to reweight)")
	}
	K := len(j.Tenants)
	if f.Weights != nil && len(f.Weights) != K {
		return fmt.Errorf("ilpgen: %d weights for %d tenants", len(f.Weights), K)
	}
	weight := func(t int) float64 {
		if f.Weights == nil {
			return 1
		}
		return f.Weights[t]
	}
	anyPositive := false
	for t := 0; t < K; t++ {
		w := weight(t)
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("ilpgen: tenant %s weight %v is not a finite nonnegative number", j.Names[t], w)
		}
		anyPositive = anyPositive || w > 0
	}
	if !anyPositive {
		return fmt.Errorf("ilpgen: all tenant weights are zero")
	}
	switch {
	case !j.floorsSet:
		if err := j.SetFloors(f); err != nil {
			return err
		}
	case f.MinUtility != nil || f.Utilities != nil:
		return fmt.Errorf("ilpgen: joint floors already set (SetObjective takes the weights and the max-min switch)")
	}
	sum := ilp.NewExpr()
	for t := 0; t < K; t++ {
		// A zero weight is dropped, not emitted at coefficient zero: a
		// degenerate column would still enter the simplex basis
		// bookkeeping and perturb warm-start alignment checks.
		if w := weight(t); w > 0 {
			sum.AddExpr(j.Tenants[t].util, w)
		}
	}
	if f.MaxMin {
		j.Model.SetNamePrefix(jointPrefix)
		defer j.Model.SetNamePrefix("")
		z := j.Model.AddVar("z", 0, ilp.Inf, ilp.Continuous)
		for t := 0; t < K; t++ {
			if w := weight(t); w > 0 {
				e := ilp.Term(z, 1)
				e.AddExpr(j.Tenants[t].util, -w)
				j.Model.AddConstr(fmt.Sprintf("maxmin[%s]", j.Names[t]), e, ilp.LE, 0)
			}
		}
		obj := ilp.Term(z, 1)
		obj.AddExpr(sum, 1e-6)
		j.Model.SetObjective(obj, ilp.Maximize)
	} else {
		j.Model.SetObjective(sum, ilp.Maximize)
	}
	j.objSet = true
	return nil
}

// JointLayout is one solved joint model read back per tenant.
type JointLayout struct {
	Target *pisa.Target
	Names  []string
	// Tenants holds one Layout per tenant (parallel to Names). Each
	// layout's Objective is that tenant's own utility value; Values on
	// every layout is the full joint assignment (any of them warm-starts
	// a joint re-solve of the same tenant mix).
	Tenants []*Layout
	// Utilities is each tenant's achieved (unweighted) utility, read
	// off the solution: the value its floor row and the objective see.
	Utilities []float64
	// Delivered is each tenant's utility expression evaluated over its
	// layout's Symbolics: what the shipped layout delivers. Extraction
	// floors the LP's continuous cell counts, so Delivered can fall
	// below Utilities, and below a floor the solution meets.
	Delivered []float64
	// Objective is the joint fairness objective value.
	Objective float64
	// Stages sums resource use across tenants per stage. The sums
	// respect the target's budgets to within the solver's relative
	// feasibility tolerance (1e-6 of each budget, so e.g. up to one
	// bit of memory per megabit-sized stage) — the same guarantee a
	// Gurobi-style FeasibilityTol gives the paper's prototype.
	Stages []StageUse
	Stats  Stats
	Values []float64
	// RootBasis is the root LP's optimal basis: with Values, the
	// ilp.Start that re-solves of the same model pool (History).
	RootBasis *ilp.Basis
}

// Solve optimizes the joint model and extracts one layout per tenant.
// The shared solution is verified against the full model once; the
// per-tenant extractions then read their own variable slices.
func (j *Joint) Solve(opts ilp.Options) (*JointLayout, error) {
	if !j.objSet {
		return nil, fmt.Errorf("ilpgen: joint model has no objective (call SetObjective)")
	}
	sol, err := solve(j.Model, opts)
	if err != nil {
		return nil, err
	}
	jl := &JointLayout{
		Target:    j.Target,
		Names:     append([]string(nil), j.Names...),
		Objective: sol.Objective,
		Stages:    make([]StageUse, j.Target.Stages),
		Values:    append([]float64(nil), sol.Values...),
		RootBasis: sol.RootBasis,
	}
	for _, p := range j.Tenants {
		l := p.extract(sol)
		util := p.util.Eval(sol.Values)
		l.Objective = util
		jl.Tenants = append(jl.Tenants, l)
		jl.Utilities = append(jl.Utilities, util)
		jl.Delivered = append(jl.Delivered, p.delivered(l.Symbolics))
		for s := range l.Stages {
			jl.Stages[s].Hf += l.Stages[s].Hf
			jl.Stages[s].Hl += l.Stages[s].Hl
			jl.Stages[s].Hashes += l.Stages[s].Hashes
			jl.Stages[s].MemoryBits += l.Stages[s].MemoryBits
		}
	}
	jl.Stats = jl.Tenants[0].Stats
	return jl, nil
}
