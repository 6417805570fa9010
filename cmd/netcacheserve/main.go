// Command netcacheserve runs the sharded NetCache service behind a
// UDP front-end: N shard goroutines, each owning a private cache
// plane in the shapes a P4All layout chose, behind a flow-hash
// dispatcher (see docs/SERVING.md). The benchmark's wire workloads
// drive it (bench/wire.go); stop it with an OpShutdown frame
// (serve.SendShutdown), SIGINT, or -duration.
//
// The structure shapes are the P4All compiler's: the server compiles
// NetCache for the -mem target and serves the layout only if the
// translation validator proves the generated program (the
// certificate's p4_sha256 is printed). No shape is set by hand, so
// every layout served carries a proved certificate.
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
	"p4all/internal/obs"
	"p4all/internal/pisa"
	"p4all/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:9640", "UDP listen address")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "shard count (worker goroutines / cache planes)")
		batch     = flag.Int("batch", 64, "most requests per shard batch")
		threshold = flag.Uint("threshold", 8, "CMS estimate admitting a key into the cache (1 to 4294967295)")
		compile   = flag.Bool("compile", true, "serve the compiler's certified shapes (always on: false exits 2)")
		mem       = flag.Int("mem", 7*pisa.Mb/4, "per-stage memory bits of the target NetCache is compiled for")
		duration  = flag.Duration("duration", 0, "stop after this long (0: run until shutdown)")
		trace     = flag.String("trace", "", "write a JSONL trace to this file")
		summary   = flag.Bool("summary", false, "print an observability summary table to stderr")
	)
	flag.Parse()

	admit, err := admissionThreshold(*threshold)
	if err == nil {
		err = runtimeCounts(*shards, *batch)
	}
	if err == nil {
		err = certifiedShapes(*compile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "netcacheserve:", err)
		os.Exit(2)
	}

	tracer, err := obs.FromCLI(*trace, *summary, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netcacheserve:", err)
		os.Exit(1)
	}

	fmt.Fprintln(os.Stderr, "compiling NetCache for the cache shapes...")
	app := apps.NetCache(apps.NetCacheConfig{})
	res, err := core.Compile(app.Source, pisa.EvalTarget(*mem),
		core.Options{Solver: ilp.Options{Threads: 1}, Certify: true, Name: app.Name, Tracer: tracer})
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
	layout := res.Layout

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

// runtimeCounts checks -shards and -batch, which the runtime reads as
// its defaults below 1 (one shard, 256 per batch): the banner would
// announce a count that is not served.
func runtimeCounts(shards, batch int) error {
	if shards < 1 || batch < 1 {
		return fmt.Errorf("-shards %d and -batch %d must be at least 1", shards, batch)
	}
	return nil
}

// certifiedShapes checks -compile, which is kept only so that command
// lines passing it still work: the served shapes are always the
// compiler's certified ones, and there are no others to serve instead.
func certifiedShapes(compile bool) error {
	if !compile {
		return fmt.Errorf("-compile=false: netcacheserve serves only the compiler's certified NetCache layout and has no hand-set shapes")
	}
	return nil
}
