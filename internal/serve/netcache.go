// NetCache over the sharded runtime: per-shard elastic planes (CMS +
// KVStore in the shapes a layout chose), partition-consistent routing
// so sharded cache behavior matches the single-shard golden model
// bit-for-bit, and SwapLayout, the quiesce-migrate-swap path through
// which the elastic controller re-shapes all shards under one epoch.

package serve

import (
	"fmt"
	"sync/atomic"

	"p4all/internal/elastic"
	"p4all/internal/ilpgen"
	"p4all/internal/obs"
)

// NetCacheConfig builds a NetCache service.
type NetCacheConfig struct {
	// Layout supplies the initial structure shapes (cms_rows/cms_cols/
	// kv_parts/kv_slots symbolics). Required.
	Layout *ilpgen.Layout
	// Shards and BatchSize size the runtime as in Config.
	Shards    int
	BatchSize int
	// Threshold is the CMS admission threshold: a missed key whose
	// estimate reaches it is cached (default 8, the Figure 4 setting).
	Threshold uint32
	// Respond, when non-nil, receives every request's outcome on the
	// owning shard's goroutine — the UDP server's reply hook. val is
	// the cache value on hits, the backend value on misses. At most
	// one call runs per shard at a time, so per-shard scratch buffers
	// are safe.
	Respond func(shard int, req Request, status uint8, val uint64)
	Tracer  *obs.Tracer
	// onBatch, when non-nil, observes each batch's (shard, epoch, size)
	// before processing — the torn-epoch race test's probe.
	onBatch func(shard int, epoch uint64, n int)
}

// NetCache serves GET/PUT traffic from per-shard cache planes. Keys
// route by KVStore partition (PartitionRoute), so every slot's
// collision set lives on one shard and the sharded cache admits,
// hits, and evicts exactly like a single-shard one.
type NetCache struct {
	rt        *Runtime[Request]
	gate      *elastic.Gate
	route     func(key uint64) int
	threshold uint32
	respond   func(shard int, req Request, status uint8, val uint64)
	onBatch   func(shard int, epoch uint64, n int)

	hits   []atomic.Uint64
	misses []atomic.Uint64
	admits []atomic.Uint64
}

// NewNetCache builds per-shard planes from the layout and starts the
// runtime. Callers must Close it.
func NewNetCache(cfg NetCacheConfig) (*NetCache, error) {
	if cfg.Layout == nil {
		return nil, fmt.Errorf("serve: NetCacheConfig.Layout is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 8
	}
	planes := make([]*elastic.Plane, cfg.Shards)
	for i := range planes {
		p, err := elastic.NewPlane(cfg.Layout)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d plane: %w", i, err)
		}
		planes[i] = p
	}
	gate, err := elastic.NewGate(planes)
	if err != nil {
		return nil, err
	}
	n := &NetCache{
		gate:      gate,
		route:     PartitionRoute(int(cfg.Layout.Symbolic("kv_parts")), cfg.Shards),
		threshold: cfg.Threshold,
		respond:   cfg.Respond,
		onBatch:   cfg.onBatch,
		hits:      make([]atomic.Uint64, cfg.Shards),
		misses:    make([]atomic.Uint64, cfg.Shards),
		admits:    make([]atomic.Uint64, cfg.Shards),
	}
	rt, err := NewRuntime(Config[Request]{
		Shards:    cfg.Shards,
		BatchSize: cfg.BatchSize,
		Tracer:    cfg.Tracer,
		Route:     func(r Request) int { return n.route(r.Key) },
		Process:   n.process,
	})
	if err != nil {
		return nil, err
	}
	n.rt = rt
	return n, nil
}

// process serves one batch against the shard's plane. The plane is
// loaded once per batch — the epoch the whole batch executes under —
// which is what the swap protocol's quiesce window protects.
func (n *NetCache) process(shard int, batch []Request) error {
	p, epoch := n.gate.Load(shard)
	if n.onBatch != nil {
		n.onBatch(shard, epoch, len(batch))
	}
	var hits, misses, admits uint64
	for i := range batch {
		req := &batch[i]
		switch req.Op {
		case OpPut:
			p.KV.Put(req.Key, req.Val)
			if n.respond != nil {
				n.respond(shard, *req, StatusOK, req.Val)
			}
		case OpGet:
			v, hit, admitted := p.ServeGet(req.Key, n.threshold)
			var status uint8 = StatusMiss
			if hit {
				status = StatusHit
				hits++
			} else {
				misses++
			}
			if admitted {
				admits++
			}
			if n.respond != nil {
				n.respond(shard, *req, status, v)
			}
		default:
			if n.respond != nil {
				n.respond(shard, *req, StatusErr, 0)
			}
		}
	}
	n.hits[shard].Add(hits)
	n.misses[shard].Add(misses)
	n.admits[shard].Add(admits)
	return nil
}

// Dispatch routes one request to its owning shard.
func (n *NetCache) Dispatch(req Request) error { return n.rt.Dispatch(req) }

// DispatchAll routes a request slice under one lock acquisition.
func (n *NetCache) DispatchAll(reqs []Request) error { return n.rt.DispatchAll(reqs) }

// Drain blocks until every dispatched request has been served.
func (n *NetCache) Drain() { n.rt.Drain() }

// Close stops the shard goroutines after draining queued work.
func (n *NetCache) Close() error { return n.rt.Close() }

// Epoch returns the gate's current epoch.
func (n *NetCache) Epoch() uint64 { return n.gate.Epoch() }

// Packets returns total requests served across shards.
func (n *NetCache) Packets() uint64 { return n.rt.Packets() }

// Stats returns aggregate hit/miss/admit counts.
func (n *NetCache) Stats() (hits, misses, admits uint64) {
	for i := range n.hits {
		hits += n.hits[i].Load()
		misses += n.misses[i].Load()
		admits += n.admits[i].Load()
	}
	return
}

// HitRate returns hits / (hits + misses), 0 before any GET.
func (n *NetCache) HitRate() float64 {
	h, m, _ := n.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// SwapLayout re-shapes every shard to a new layout inside one quiesce
// window: the shards drain, each plane migrates (hot keys filtered to
// the shard that owns them), and Gate.Swap publishes the new
// set under a single epoch — no batch ever runs against a mix. If the
// new layout changes kv_parts, the routing function changes with it;
// entries whose owning shard moved are left behind as unreachable
// cold state and re-warm through admission, which is ordinary cache
// behavior. Returns the new epoch and the KV entries dropped to
// collisions during migration.
func (n *NetCache) SwapLayout(l *ilpgen.Layout, hot []elastic.KeyCount) (epoch uint64, dropped int, err error) {
	err = n.rt.Quiesce(func() error {
		newRoute := PartitionRoute(int(l.Symbolic("kv_parts")), n.rt.Shards())
		planes, d, merr := elastic.MigrateShards(n.gate.Planes(), l, hot, newRoute)
		if merr != nil {
			return merr
		}
		e, serr := n.gate.Swap(planes)
		if serr != nil {
			return serr
		}
		n.route = newRoute
		epoch, dropped = e, d
		return nil
	})
	return
}
