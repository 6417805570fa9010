// The serving-scalability figure: aggregate replay throughput of the
// sharded runtime (internal/serve) as shard count grows. This is the
// scale-out companion to docs/SIM_PERF.md's single-core engine
// numbers — the workload's keys are spread by flow hash, per-shard
// state stays private, so on an unloaded multicore machine throughput
// grows near-linearly until shards exceed cores.

package eval

import (
	"fmt"
	"runtime"
	"time"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/serve"
	"p4all/internal/sim"
	"p4all/internal/workload"
)

// ScalingConfig parameterizes the shard-scaling measurement.
type ScalingConfig struct {
	Seed int64
	// Keys is the key-universe size; Zipf the request skew (0 for
	// uniform — the disjoint-key best case for scaling).
	Keys int
	Zipf float64
	// Packets is the stream length replayed per shard count.
	Packets int
	// Shards lists the shard counts to measure (default 1, 2, ...,
	// GOMAXPROCS deduplicated and sorted).
	Shards []int
	// BatchSize is the dispatch batch (default 256).
	BatchSize int
	// MemBits is the per-stage budget the NetCache shapes compile
	// under (default pisa.Mb).
	MemBits int
}

// DefaultScalingConfig mirrors the SIM_PERF replay workload at a
// size where dispatch overhead is amortized.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{Seed: 1, Keys: 100000, Zipf: 0.95, Packets: 1 << 18, BatchSize: 256}
}

// ScalingPoint is one shard count's measurement.
type ScalingPoint struct {
	Shards     int
	Packets    int
	Elapsed    time.Duration
	PktsPerSec float64
	// Speedup is PktsPerSec relative to the 1-shard point.
	Speedup float64
}

// ScalingResult is the figure's rows plus the compile the runtime
// executed.
type ScalingResult struct {
	Engine string
	Points []ScalingPoint
}

// ShardCounts returns the default sweep: 1, 2, and GOMAXPROCS,
// deduplicated and ascending.
func ShardCounts() []int {
	out := []int{1}
	for _, n := range []int{2, runtime.GOMAXPROCS(0)} {
		if n > out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}

// FigureScaling measures aggregate pkts/sec through the sharded
// serving runtime for each shard count. A non-nil tr observes the
// compile and the runtimes.
func FigureScaling(cfg ScalingConfig, tr *obs.Tracer) (*ScalingResult, error) {
	if cfg.Packets <= 0 {
		cfg.Packets = 1 << 18
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 100000
	}
	if cfg.MemBits <= 0 {
		cfg.MemBits = pisa.Mb
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = ShardCounts()
	}
	app := apps.NetCache(apps.NetCacheConfig{})
	res, err := core.Compile(app.Source, pisa.EvalTarget(cfg.MemBits),
		core.Options{Solver: FigureSolver, SkipCodegen: true, Tracer: tr})
	if err != nil {
		return nil, err
	}
	stream := workload.ZipfKeys(cfg.Seed, cfg.Keys, cfg.Zipf, cfg.Packets)
	pkts := make([]sim.Packet, len(stream))
	for i, k := range stream {
		pkts[i] = sim.Packet{"query.key": k & 0xFFFFFFFF, "query.op": 0, "ipv4.dst": k & 0xFFFFFFFF}
	}

	out := &ScalingResult{}
	for _, shards := range cfg.Shards {
		rt, err := serve.NewSimRuntime(serve.SimConfig{
			Unit: res.Unit, Layout: res.Layout,
			Shards: shards, BatchSize: cfg.BatchSize,
			KeyField: "query.key", Tracer: tr,
		})
		if err != nil {
			return nil, err
		}
		if out.Engine == "" {
			out.Engine = rt.Pipelines()[0].EngineName()
		}
		start := time.Now()
		if err := rt.DispatchAll(pkts); err != nil {
			rt.Close()
			return nil, err
		}
		rt.Drain()
		elapsed := time.Since(start)
		if err := rt.Close(); err != nil {
			return nil, err
		}
		if got := rt.Packets(); got != uint64(len(pkts)) {
			return nil, fmt.Errorf("eval: scaling at %d shards replayed %d packets, want %d", shards, got, len(pkts))
		}
		p := ScalingPoint{
			Shards:     shards,
			Packets:    len(pkts),
			Elapsed:    elapsed,
			PktsPerSec: float64(len(pkts)) / elapsed.Seconds(),
		}
		if len(out.Points) == 0 {
			p.Speedup = 1
		} else {
			p.Speedup = p.PktsPerSec / out.Points[0].PktsPerSec
		}
		out.Points = append(out.Points, p)
		tr.Event("eval.scaling.point",
			obs.Int("shards", shards),
			obs.Float("pkts_per_sec", p.PktsPerSec),
			obs.Float("speedup", p.Speedup),
		)
	}
	return out, nil
}
