// SimRuntime specializes the generic runtime to N behavioral
// pipelines: every shard owns a private sim.Pipeline built from the
// same unit and layout, so sim.Pipeline's single-goroutine ownership
// contract holds per shard.

package serve

import (
	"fmt"

	"p4all/internal/ilpgen"
	"p4all/internal/lang"
	"p4all/internal/sim"
)

// SimConfig builds a SimRuntime.
type SimConfig struct {
	// Unit and Layout are the compiled program all shards execute.
	Unit   *lang.Unit
	Layout *ilpgen.Layout
	// Shards and BatchSize size the runtime as in Config.
	Shards    int
	BatchSize int
	// KeyField is the packet field the dispatcher flow-hashes
	// (FlowRoute) to pick a shard (required), e.g. "query.key".
	KeyField string
	// sink, when non-nil, observes every processed packet on the
	// shard's goroutine (same contract as sim.Pipeline.Replay sinks) —
	// the engine-parity test's probe.
	sink func(shard, i int, v sim.View) error
}

// SimRuntime is a sharded set of behavioral pipelines behind one
// dispatcher.
type SimRuntime struct {
	rt    *Runtime[sim.Packet]
	pipes []*sim.Pipeline // shard i's pipeline; touch only inside rt.Quiesce
}

// NewSimRuntime builds the per-shard pipelines and starts the runtime.
func NewSimRuntime(cfg SimConfig) (*SimRuntime, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.KeyField == "" {
		return nil, fmt.Errorf("serve: SimConfig.KeyField is required")
	}
	pipes := make([]*sim.Pipeline, cfg.Shards)
	for i := range pipes {
		p, err := sim.New(cfg.Unit, cfg.Layout)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d pipeline: %w", i, err)
		}
		pipes[i] = p
	}
	route := FlowRoute(cfg.Shards)
	key := cfg.KeyField
	s := &SimRuntime{pipes: pipes}
	rt, err := NewRuntime(Config[sim.Packet]{
		Shards:    cfg.Shards,
		BatchSize: cfg.BatchSize,
		Route:     func(pkt sim.Packet) int { return route(pkt[key]) },
		Process: func(shard int, batch []sim.Packet) error {
			if cfg.sink == nil {
				return pipes[shard].Replay(batch, nil)
			}
			return pipes[shard].Replay(batch, func(i int, v sim.View) error {
				return cfg.sink(shard, i, v)
			})
		},
	})
	if err != nil {
		return nil, err
	}
	s.rt = rt
	return s, nil
}

// DispatchAll routes a packet slice under one lock acquisition.
func (s *SimRuntime) DispatchAll(pkts []sim.Packet) error { return s.rt.DispatchAll(pkts) }

// Drain blocks until every dispatched packet has been replayed.
func (s *SimRuntime) Drain() { s.rt.Drain() }

// Close drains and stops the shard goroutines.
func (s *SimRuntime) Close() error { return s.rt.Close() }

// Err returns the first replay error.
func (s *SimRuntime) Err() error { return s.rt.Err() }
