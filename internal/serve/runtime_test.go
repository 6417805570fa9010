package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/difftest"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/pisa"
	"p4all/internal/sim"
)

var compileOnce struct {
	sync.Once
	unit   *lang.Unit
	layout *ilpgen.Layout
	err    error
}

// compiledNetCache compiles the NetCache app once per test binary.
func compiledNetCache(t testing.TB) (*lang.Unit, *ilpgen.Layout) {
	t.Helper()
	compileOnce.Do(func() {
		app := apps.NetCache(apps.NetCacheConfig{})
		res, err := core.Compile(app.Source, pisa.EvalTarget(pisa.Mb),
			core.Options{Solver: ilp.Options{Deterministic: true}, SkipCodegen: true})
		if err != nil {
			compileOnce.err = err
			return
		}
		compileOnce.unit, compileOnce.layout = res.Unit, res.Layout
	})
	if compileOnce.err != nil {
		t.Fatalf("compiling NetCache: %v", compileOnce.err)
	}
	return compileOnce.unit, compileOnce.layout
}

// netcacheStream generates the difftest zipf stream for NetCache.
func netcacheStream(n int) []sim.Packet {
	specs := difftest.Specs()
	for _, s := range specs {
		if s.Name == "NetCache" {
			return difftest.GenStream(s, 1, n)
		}
	}
	panic("no NetCache spec")
}

func TestRuntimeRoutesToOwningShard(t *testing.T) {
	const shards = 4
	got := make([][]int, shards)
	rt, err := NewRuntime(Config[int]{
		Shards:    shards,
		BatchSize: 16,
		Route:     func(v int) int { return v % shards },
		Process: func(shard int, batch []int) error {
			got[shard] = append(got[shard], batch...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for v := 0; v < n; v++ {
		if err := rt.Dispatch(v); err != nil {
			t.Fatal(err)
		}
	}
	rt.Drain()
	if rt.Packets() != n {
		t.Fatalf("Packets() = %d, want %d", rt.Packets(), n)
	}
	var total uint64
	for s := 0; s < shards; s++ {
		total += rt.shards[s].packets.Load()
		last := -1
		for _, v := range got[s] {
			if v%shards != s {
				t.Fatalf("shard %d received item %d", s, v)
			}
			if v <= last {
				t.Fatalf("shard %d saw %d after %d: per-shard order broken", s, v, last)
			}
			last = v
		}
	}
	if total != n {
		t.Fatalf("shard packet counts sum to %d, want %d", total, n)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeProcessErrorPoisons(t *testing.T) {
	boom := errors.New("boom")
	rt, err := NewRuntime(Config[int]{
		Shards:    2,
		BatchSize: 4,
		Route:     func(v int) int { return v % 2 },
		Process: func(shard int, batch []int) error {
			for _, v := range batch {
				if v == 7 {
					return boom
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 100; v++ {
		if err := rt.Dispatch(v); err != nil {
			t.Fatal(err)
		}
	}
	rt.Drain()
	if err := rt.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want wrapped boom", err)
	}
}

func TestRuntimeRejectsBadConfig(t *testing.T) {
	if _, err := NewRuntime(Config[int]{Process: func(int, []int) error { return nil }}); err == nil {
		t.Fatal("missing Route accepted")
	}
	if _, err := NewRuntime(Config[int]{Route: func(int) int { return 0 }}); err == nil {
		t.Fatal("missing Process accepted")
	}
	rt, err := NewRuntime(Config[int]{
		Shards:  2,
		Route:   func(int) int { return 5 },
		Process: func(int, []int) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Dispatch(1); err == nil {
		t.Fatal("out-of-range route accepted")
	}
	rt.Close()
}

// TestSimRuntimeEngineParity is the difftest engine oracle run against
// the sharded runtime: the 2-shard runtime (the VM) must produce, shard
// by shard, bit-identical per-packet outputs to two interpreter
// pipelines fed by the runtime's own FlowRoute in dispatch order.
func TestSimRuntimeEngineParity(t *testing.T) {
	unit, layout := compiledNetCache(t)
	pkts := netcacheStream(8192)
	fields := []string{"cms_meta.min", "kv_meta.value", "nc_meta.cache_hit"}

	type rec struct {
		vals [3]uint64
	}
	vm := make([][]rec, 2)
	rt, err := NewSimRuntime(SimConfig{
		Unit: unit, Layout: layout,
		Shards: 2, BatchSize: 64, KeyField: "query.key",
		sink: func(shard, i int, v sim.View) error {
			var r rec
			for fi, f := range fields {
				r.vals[fi], _ = v.Get(f)
			}
			vm[shard] = append(vm[shard], r)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.DispatchAll(pkts); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	interp := make([][]rec, 2)
	route := FlowRoute(2)
	var pipes [2]*sim.Pipeline
	for s := range pipes {
		if pipes[s], err = sim.NewEngine(unit, layout, sim.EngineInterp); err != nil {
			t.Fatal(err)
		}
	}
	for _, pkt := range pkts {
		s := route(pkt["query.key"])
		out, err := pipes[s].Process(pkt)
		if err != nil {
			t.Fatal(err)
		}
		var r rec
		for fi, f := range fields {
			r.vals[fi] = out[f]
		}
		interp[s] = append(interp[s], r)
	}
	for s := 0; s < 2; s++ {
		if len(vm[s]) != len(interp[s]) {
			t.Fatalf("shard %d: vm saw %d packets, interp %d", s, len(vm[s]), len(interp[s]))
		}
		for i := range vm[s] {
			if vm[s][i] != interp[s][i] {
				t.Fatalf("shard %d packet %d: vm %v != interp %v", s, i, vm[s][i], interp[s][i])
			}
		}
	}
}

// TestSimRuntimeCMSAdditivity checks sketch sharding at the
// register level: NetCache's sketch increments one cell per row per
// packet, so summing each shard's cms registers cell-wise must reduce
// to exactly the registers of a single pipeline that replayed the
// whole stream.
func TestSimRuntimeCMSAdditivity(t *testing.T) {
	unit, layout := compiledNetCache(t)
	pkts := netcacheStream(16384)
	rows := int(layout.Symbolic("cms_rows"))

	single, err := sim.New(unit, layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Replay(pkts, nil); err != nil {
		t.Fatal(err)
	}

	const shards = 4
	rt, err := NewSimRuntime(SimConfig{
		Unit: unit, Layout: layout,
		Shards: shards, BatchSize: 128, KeyField: "query.key",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.DispatchAll(pkts); err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	if got := rt.rt.Packets(); got != uint64(len(pkts)) {
		t.Fatalf("sharded runtime replayed %d packets, want %d", got, len(pkts))
	}
	err = rt.rt.Quiesce(func() error {
		for r := 0; r < rows; r++ {
			want, ok := single.Register("cms_sketch", r)
			if !ok {
				return fmt.Errorf("single pipeline has no cms_sketch/%d", r)
			}
			sum := make([]uint64, len(want))
			for _, p := range rt.pipes {
				cells, ok := p.Register("cms_sketch", r)
				if !ok {
					return fmt.Errorf("shard pipeline has no cms_sketch/%d", r)
				}
				for i, c := range cells {
					sum[i] += c
				}
			}
			for i := range want {
				if sum[i] != want[i] {
					return fmt.Errorf("cms_sketch/%d cell %d: shard sum %d != single %d", r, i, sum[i], want[i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSimRuntimeSteadyStateAllocatesNothing pins the serving hot loops
// at zero allocations once warm: the dispatcher reuses its batch
// accumulators and free rings, Replay reuses its frame, and a GET batch
// through NetCache's planes touches only preallocated structures.
// AllocsPerRun counts every goroutine's mallocs, so the shard workers
// are inside the measurement.
func TestSimRuntimeSteadyStateAllocatesNothing(t *testing.T) {
	unit, layout := compiledNetCache(t)
	pkts := netcacheStream(8192)
	steady := func(what string, cycle func() error) {
		t.Helper()
		run := func() {
			if err := cycle(); err != nil {
				t.Fatal(err)
			}
		}
		run() // settles lazily-grown accumulators and rings
		if n := testing.AllocsPerRun(5, run); n != 0 {
			t.Errorf("%s: dispatch+drain of %d requests allocates %v times, want 0", what, len(pkts), n)
		}
	}

	for _, shards := range []int{1, 2} {
		rt, err := NewSimRuntime(SimConfig{
			Unit: unit, Layout: layout,
			Shards: shards, BatchSize: 256, KeyField: "query.key",
		})
		if err != nil {
			t.Fatal(err)
		}
		steady(fmt.Sprintf("SimRuntime shards=%d", shards), func() error {
			err := rt.DispatchAll(pkts)
			rt.Drain()
			return err
		})
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}

	nc, err := NewNetCache(NetCacheConfig{Layout: layout, Shards: 2, BatchSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	reqs := make([]Request, len(pkts))
	for i, pkt := range pkts {
		reqs[i] = Request{Op: OpGet, Key: pkt["query.key"]}
	}
	steady("NetCache GETs", func() error {
		err := nc.DispatchAll(reqs)
		nc.Drain()
		return err
	})
}
