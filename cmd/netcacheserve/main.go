// Command netcacheserve runs the sharded NetCache service behind a
// UDP front-end: N shard goroutines, each owning a private cache
// plane in the shapes a P4All layout chose, behind a flow-hash
// dispatcher (see docs/SERVING.md). The benchmark's wire workloads
// drive it (bench/wire.go); stop it with an OpShutdown frame
// (serve.SendShutdown), SIGINT, or -duration.
//
// By default the structure shapes come from flags for instant
// startup; -compile asks the P4All compiler for its chosen shapes
// instead, and serves them only if the translation validator proves
// the generated program (the certificate's p4_sha256 is printed).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"p4all/internal/apps"
	"p4all/internal/core"
	"p4all/internal/ilp"
	"p4all/internal/ilpgen"
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9640", "UDP listen address")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "shard count (worker goroutines / cache planes)")
		batch     = flag.Int("batch", 64, "requests per shard batch")
		threshold = flag.Uint("threshold", 8, "CMS estimate admitting a key into the cache (1 to 4294967295)")
		rows      = flag.Int("rows", 2, "CMS rows (with -compile: ignored)")
		cols      = flag.Int("cols", 4096, "CMS cols (with -compile: ignored)")
		parts     = flag.Int("parts", 8, "KV partitions (with -compile: ignored)")
		slots     = flag.Int("slots", 1024, "KV slots per partition (with -compile: ignored)")
		compile   = flag.Bool("compile", false, "compile NetCache and use the solver's shapes")
		mem       = flag.Int("mem", 7*pisa.Mb/4, "per-stage memory bits for -compile")
		duration  = flag.Duration("duration", 0, "stop after this long (0: run until shutdown)")
		trace     = flag.String("trace", "", "write a JSONL trace to this file")
		summary   = flag.Bool("summary", false, "print an observability summary table to stderr")
	)
	flag.Parse()

	admit, err := admissionThreshold(*threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netcacheserve:", err)
		os.Exit(2)
	}

	tracer, err := obs.FromCLI(*trace, *summary, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netcacheserve:", err)
		os.Exit(1)
	}

	layout := &ilpgen.Layout{Symbolics: map[string]int64{
		"cms_rows": int64(*rows), "cms_cols": int64(*cols),
		"kv_parts": int64(*parts), "kv_slots": int64(*slots),
	}}
	if *compile {
		fmt.Fprintln(os.Stderr, "compiling NetCache for the cache shapes...")
		app := apps.NetCache(apps.NetCacheConfig{})
		res, err := core.Compile(app.Source, pisa.EvalTarget(*mem),
			core.Options{Solver: ilp.Options{Deterministic: true}, Certify: true, Name: app.Name, Tracer: tracer})
		if err != nil {
			fmt.Fprintln(os.Stderr, "netcacheserve:", err)
			os.Exit(1)
		}
		cert := res.Certificate
		if !cert.Proved() {
			for _, f := range cert.Failures() {
				fmt.Fprintln(os.Stderr, "netcacheserve:", f)
			}
			fmt.Fprintln(os.Stderr, "netcacheserve: the compiled layout is not certified; refusing to serve it")
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "certified p4_sha256", cert.P4SHA256)
		layout = res.Layout
	}

	srv, err := serve.NewServer(serve.ServerConfig{
		Addr: *addr,
		NetCache: serve.NetCacheConfig{
			Layout:    layout,
			Shards:    *shards,
			BatchSize: *batch,
			Threshold: admit,
			Tracer:    tracer,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "netcacheserve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "serving on %s: %d shards, cms %dx%d, kv %dx%d, threshold %d\n",
		srv.Addr(), *shards,
		layout.Symbolic("cms_rows"), layout.Symbolic("cms_cols"),
		layout.Symbolic("kv_parts"), layout.Symbolic("kv_slots"), admit)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		if *duration > 0 {
			select {
			case <-sigs:
			case <-time.After(*duration):
			case <-stop:
				return
			}
		} else {
			select {
			case <-sigs:
			case <-stop:
				return
			}
		}
		srv.Shutdown()
	}()

	err = srv.Serve()
	close(stop)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netcacheserve:", err)
		os.Exit(1)
	}

	cache := srv.Cache()
	hits, misses, admits := cache.Stats()
	tracer.Event("netcacheserve.result",
		obs.Int("shards", *shards),
		obs.Int("requests", int(cache.Packets())),
		obs.Float("hit_rate", cache.HitRate()),
	)
	if err := tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "netcacheserve: trace:", err)
	}
	fmt.Printf("served %d requests across %d shards: %d hits, %d misses, %d admissions (hit rate %.4f), %d drops\n",
		cache.Packets(), *shards, hits, misses, admits, cache.HitRate(), srv.Drops())
}

// admissionThreshold checks -threshold before it reaches the cache,
// which counts in 32 bits and reads 0 as its default of 8: a value
// outside 1 … 2³²−1 would be announced but not served.
func admissionThreshold(v uint) (uint32, error) {
	if v == 0 || uint64(v) > math.MaxUint32 {
		return 0, fmt.Errorf("-threshold %d is outside 1 … %d", v, uint32(math.MaxUint32))
	}
	return uint32(v), nil
}
