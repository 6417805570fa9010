package serve

import (
	"net"
	"sync"
	"testing"
	"time"

	"p4all/internal/workload"
)

// loadResult is what runLoad's clients saw, summed.
type loadResult struct {
	sent, received, hits, misses, lost uint64
}

// runLoad drives n Zipf(1.2) GETs over 800 keys at addr from `clients`
// concurrent sockets and sums what they saw.
func runLoad(t *testing.T, addr *net.UDPAddr, clients, n int) loadResult {
	t.Helper()
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r, err := runClient(addr, workload.ZipfKeys(5+int64(c)*7919, 800, 1.2, n/clients))
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				t.Error(err)
			}
			res.sent += r.sent
			res.received += r.received
			res.hits += r.hits
			res.misses += r.misses
			res.lost += r.lost
		}(c)
	}
	wg.Wait()
	return res
}

// runClient sends keys over its own socket in windows of 32, collecting
// each window's replies under a 2 s deadline; replies that miss it count
// as lost.
func runClient(addr *net.UDPAddr, keys []uint64) (loadResult, error) {
	const window = 32
	var r loadResult
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return r, err
	}
	defer conn.Close()
	var out, in [FrameSize]byte
	seq := uint32(0)
	for off := 0; off < len(keys); off += window {
		end := off + window
		if end > len(keys) {
			end = len(keys)
		}
		for _, k := range keys[off:end] {
			seq++
			Frame{Op: OpGet, Seq: seq, Key: k}.Encode(out[:])
			if _, err := conn.Write(out[:]); err != nil {
				return r, err
			}
			r.sent++
		}
		want := uint64(end - off)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var got uint64
		for got < want {
			n, err := conn.Read(in[:])
			if err != nil {
				break // deadline: count the window's stragglers as lost
			}
			f, err := DecodeFrame(in[:n])
			if err != nil {
				continue
			}
			got++
			r.received++
			switch f.Status {
			case StatusHit:
				r.hits++
			case StatusMiss:
				r.misses++
			}
		}
		r.lost += want - got
	}
	return r, nil
}

// TestServerEndToEnd runs the whole stack on loopback: UDP server in
// front of a sharded cache, the load generator driving skewed GETs,
// and the OpShutdown handshake stopping the server cleanly.
func TestServerEndToEnd(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0",
		NetCache: NetCacheConfig{
			Layout:    testLayout(2, 1024, 8, 64),
			Shards:    2,
			BatchSize: 32,
			Threshold: 4,
		},
	})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	addr := net.UDPAddrFromAddrPort(srv.Addr())
	res := runLoad(t, addr, 3, 12000)
	acked, err := SendShutdown(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not stop after OpShutdown")
	}

	if res.sent != 12000 {
		t.Fatalf("sent %d requests, want 12000", res.sent)
	}
	if res.received == 0 {
		t.Fatal("no responses received")
	}
	if res.hits == 0 {
		t.Fatalf("skewed load produced no cache hits (misses %d, lost %d)", res.misses, res.lost)
	}
	if !acked {
		t.Fatal("shutdown was not acknowledged")
	}
	// The server's view must agree with the client's: requests the
	// clients got answers for were all served.
	h, m, _ := srv.Cache().Stats()
	if h+m < res.received {
		t.Fatalf("server served %d GETs but clients got %d replies", h+m, res.received)
	}
	if srv.Drops() != 0 {
		t.Fatalf("server dropped %d well-formed datagrams", srv.Drops())
	}
}

// TestServerShutdownFromOutside covers the Shutdown path (no client
// handshake): Serve must return promptly with the cache drained.
func TestServerShutdownFromOutside(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr:     "127.0.0.1:0",
		NetCache: NetCacheConfig{Layout: testLayout(2, 256, 4, 32), Shards: 2},
	})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown returned %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}
