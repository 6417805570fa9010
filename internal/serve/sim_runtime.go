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
	// Engine selects VM or interpreter execution (default VM).
	Engine sim.Engine
	// Shards and BatchSize size the runtime as in Config.
	Shards    int
	BatchSize int
	// KeyField is the packet field the dispatcher flow-hashes
	// (FlowRoute) to pick a shard (required), e.g. "query.key".
	KeyField string
	// Sink, when non-nil, observes every processed packet on the
	// shard's goroutine (same contract as sim.Pipeline.Replay sinks).
	Sink func(shard, i int, v sim.View) error
}

// SimRuntime is a sharded set of behavioral pipelines behind one
// dispatcher.
type SimRuntime struct {
	rt    *Runtime[sim.Packet]
	pipes []*sim.Pipeline
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
		p, err := sim.NewEngine(cfg.Unit, cfg.Layout, cfg.Engine)
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
			if cfg.Sink == nil {
				return pipes[shard].Replay(batch, nil)
			}
			return pipes[shard].Replay(batch, func(i int, v sim.View) error {
				return cfg.Sink(shard, i, v)
			})
		},
	})
	if err != nil {
		return nil, err
	}
	s.rt = rt
	return s, nil
}

// Dispatch routes one packet to its shard.
func (s *SimRuntime) Dispatch(pkt sim.Packet) error { return s.rt.Dispatch(pkt) }

// DispatchAll routes a packet slice under one lock acquisition.
func (s *SimRuntime) DispatchAll(pkts []sim.Packet) error { return s.rt.DispatchAll(pkts) }

// Flush pushes partial batches; Drain additionally waits for idle.
func (s *SimRuntime) Flush() { s.rt.Flush() }

// Drain blocks until every dispatched packet has been replayed.
func (s *SimRuntime) Drain() { s.rt.Drain() }

// Quiesce runs f while all shards are idle — the window in which the
// pipelines may be inspected or snapshotted from outside.
func (s *SimRuntime) Quiesce(f func() error) error { return s.rt.Quiesce(f) }

// Close drains and stops the shard goroutines.
func (s *SimRuntime) Close() error { return s.rt.Close() }

// Err returns the first replay error.
func (s *SimRuntime) Err() error { return s.rt.Err() }

// Shards returns the shard count.
func (s *SimRuntime) Shards() int { return s.rt.Shards() }

// Packets returns total packets replayed; ShardPackets one shard's.
func (s *SimRuntime) Packets() uint64           { return s.rt.Packets() }
func (s *SimRuntime) ShardPackets(i int) uint64 { return s.rt.ShardPackets(i) }

// Pipelines returns the per-shard pipelines. Callers may only touch
// them inside Quiesce (or after Close).
func (s *SimRuntime) Pipelines() []*sim.Pipeline { return s.pipes }
