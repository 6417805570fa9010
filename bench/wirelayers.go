package main

import (
	"fmt"
	"runtime"
	"time"

	"p4all/internal/elastic"
	"p4all/internal/ilpgen"
	"p4all/internal/serve"
)

// admitThreshold is the CMS estimate at which the server admits a
// missed key to the cache (netcacheserve's -threshold default).
const admitThreshold = 8

// wireLayers drives the wire path's layers in process, one at a time,
// on the request stream the socket run used and in the cache shapes the
// server announced: frame codec, dispatch runtime with a no-op service,
// the NetCache service without replies, and the cache plane itself.
// What the socket run costs beyond them is the socket layer's share.
func wireLayers(r *result, layout *ilpgen.Layout, reqs []serve.Request, budget time.Duration) error {
	slice := budget / 4
	n := float64(len(reqs))
	perReq := func(name string, walls []float64) { r.set(name, 1e9*median(walls)/n) }
	timed := func(name string, op func()) []float64 {
		return loopFor(slice, 1, func() {
			id := r.rec.start(name, -1)
			op()
			r.rec.end(id)
		})
	}

	var buf [serve.FrameSize]byte
	perReq("serve.proto.ns_per_frame", timed("serve.proto", func() {
		for i := range reqs {
			serve.Frame{Op: reqs[i].Op, Seq: reqs[i].Seq, Key: reqs[i].Key, Val: reqs[i].Val}.Encode(buf[:])
			if _, err := serve.DecodeFrame(buf[:]); err != nil {
				r.fail(1, "frame %d does not decode: %v", i, err)
			}
		}
	}))

	parts := int(layout.Symbolic("kv_parts"))
	route := serve.PartitionRoute(parts, wireShards)
	rt, err := serve.NewRuntime(serve.Config[serve.Request]{
		Shards: wireShards, BatchSize: wireBatch,
		Route:   func(req serve.Request) int { return route(req.Key) },
		Process: func(int, []serve.Request) error { return nil },
	})
	if err != nil {
		return err
	}
	perReq("serve.runtime.ns_per_req", timed("serve.runtime", func() {
		if err := rt.DispatchAll(reqs); err != nil {
			r.fail(1, "runtime dispatch: %v", err)
		}
		rt.Drain()
	}))
	if err := rt.Close(); err != nil {
		return err
	}

	// The service's hit rate on a fixed stream is a count: two fresh
	// caches must agree on it exactly.
	newCache := func() (*serve.NetCache, error) {
		return serve.NewNetCache(serve.NetCacheConfig{Layout: layout, Shards: wireShards, BatchSize: wireBatch, Threshold: admitThreshold})
	}
	var rates [2]float64
	var cache *serve.NetCache
	for i := range rates {
		if cache != nil {
			cache.Close()
		}
		if cache, err = newCache(); err != nil {
			return err
		}
		if err := cache.DispatchAll(reqs); err != nil {
			return err
		}
		cache.Drain()
		rates[i] = cache.HitRate()
	}
	if rates[0] != rates[1] {
		r.nondeterministic("in-process hit rate %v, then %v", rates[0], rates[1])
	}
	r.set("wire.inmem_hit_rate", rates[0])
	var ms0, ms1 runtime.MemStats
	var mallocs []float64
	perReq("serve.netcache.ns_per_req", timed("serve.netcache", func() {
		runtime.ReadMemStats(&ms0)
		if err := cache.DispatchAll(reqs); err != nil {
			r.fail(1, "netcache dispatch: %v", err)
		}
		cache.Drain()
		runtime.ReadMemStats(&ms1)
		mallocs = append(mallocs, float64(ms1.Mallocs-ms0.Mallocs)/n)
	}))
	r.setMedian("serve.netcache.allocs_per_req", mallocs)
	if err := cache.Close(); err != nil {
		return fmt.Errorf("netcache: %w", err)
	}

	plane, err := elastic.NewPlane(layout)
	if err != nil {
		return err
	}
	perReq("structures.plane.ns_per_req", timed("structures.plane", func() {
		for i := range reqs {
			key := reqs[i].Key
			if reqs[i].Op == serve.OpPut {
				plane.KV.Put(key, reqs[i].Val)
			} else if _, hit := plane.KV.Get(key); !hit && plane.CMS.Update(key) >= admitThreshold {
				plane.KV.Put(key, backendVal(key))
			}
		}
	}))
	return nil
}
