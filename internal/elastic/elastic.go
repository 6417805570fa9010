// Package elastic closes the loop the paper leaves open: P4All
// compiles a program once, for one anticipated workload, but §3.2's
// NetCache case study shows the right CMS/KV split depends on the
// traffic actually observed. This package is a runtime reoptimization
// controller. It watches per-window traffic statistics, detects
// workload drift (skew change, key-popularity churn), re-runs the
// compiler with a reweighted utility and a warm-started ILP solve
// seeded from the incumbent layout and the one it replaced, certifies
// the re-solved program with the translation validator, and hands an
// adopted layout to the caller's swap, which migrates live structure
// state to the new shapes and atomically swaps the data plane —
// falling back to the incumbent when the re-solve times out, fails to
// certify, fails to improve utility, or the swap fails.
//
// The pieces compose as:
//
//	traffic window ─Summarize→ WindowStats ─Detector→ Drift
//	     Drift ─Controller→ warm one-tenant multitenant.Compiler
//	            re-solve + certify → utility check
//	     adopt: swap = serve.NetCache.SwapLayout
//	            (Quiesce → MigrateShards → publish planes, bump epoch)
//	     reject: keep incumbent, record an obs event
//
// The Controller owns no data plane: it keeps the incumbent layout and
// decides. The server owns the planes, one per shard, and its
// SwapLayout is the only swap path: it replaces them while Quiesce
// holds every shard idle. Detector and the migration helpers are
// application-agnostic; Controller and Plane are written against the
// NetCache data plane (the paper's running elastic application).
package elastic

import "sort"

// KeyCount pairs a key with its request count inside one window.
type KeyCount struct {
	Key   uint64
	Count uint64
}

// WindowStats summarizes one observation window of traffic — the
// controller's only view of the workload.
type WindowStats struct {
	// Requests is the number of requests in the window.
	Requests int
	// Hits is how many of them the data plane served from cache.
	Hits int
	// TopShare is the fraction of requests going to the TopK hottest
	// keys — the skew signal (≈0.56 at Zipf 1.1 over 50k keys,
	// ≈0.04 at Zipf 0.5).
	TopShare float64
	// TopK records how many head keys TopShare covers.
	TopK int
	// HotKeys lists the window's hottest keys, descending count. The
	// controller re-admits these into migrated structures and uses
	// their counts as the popularity ranking for KV migration.
	HotKeys []KeyCount
}

// HitRate returns the window's cache hit rate.
func (w WindowStats) HitRate() float64 {
	if w.Requests == 0 {
		return 0
	}
	return float64(w.Hits) / float64(w.Requests)
}

// Summarize builds WindowStats from a window's request keys. topK sets
// the head size for the skew signal; hotN bounds how many hot keys are
// carried for migration (clamped up to topK).
func Summarize(keys []uint64, hits, topK, hotN int) WindowStats {
	counts := make(map[uint64]uint64, len(keys))
	for _, k := range keys {
		counts[k]++
	}
	all := make([]KeyCount, 0, len(counts))
	for k, c := range counts {
		all = append(all, KeyCount{Key: k, Count: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if hotN < topK {
		hotN = topK
	}
	if hotN > len(all) {
		hotN = len(all)
	}
	k := topK
	if k > len(all) {
		k = len(all)
	}
	var head uint64
	for _, kc := range all[:k] {
		head += kc.Count
	}
	share := 0.0
	if len(keys) > 0 {
		share = float64(head) / float64(len(keys))
	}
	return WindowStats{
		Requests: len(keys),
		Hits:     hits,
		TopShare: share,
		TopK:     topK,
		HotKeys:  all[:hotN],
	}
}
