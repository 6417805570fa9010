// The UDP ingress: a receive loop that decodes frames into shard
// queues and a per-shard reply path. One goroutine reads the socket
// (the dispatcher role), N shard goroutines serve and reply —
// net.UDPConn writes are goroutine-safe, so shards respond directly
// without funneling through a writer.

package serve

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync/atomic"
	"time"
)

// ServerConfig builds a Server around a NetCacheConfig.
type ServerConfig struct {
	// Addr is the UDP listen address, e.g. "127.0.0.1:9640" or ":0"
	// for an ephemeral port.
	Addr string
	// NetCache configures the cache service. Respond is overwritten by
	// the server (replies go to the wire); Tracer passes through.
	NetCache NetCacheConfig
}

// Server owns the socket, the receive loop, and the NetCache service
// behind it.
type Server struct {
	conn  *net.UDPConn
	cache *NetCache

	stopping atomic.Bool
	done     chan struct{}
	runErr   error

	drops atomic.Uint64 // malformed or oversized datagrams
}

// NewServer binds the socket and starts the cache runtime; Serve
// starts the receive loop.
func NewServer(cfg ServerConfig) (*Server, error) {
	addr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: resolve %q: %w", cfg.Addr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	s := &Server{conn: conn, done: make(chan struct{})}
	nc := cfg.NetCache
	nc.Respond = s.respond
	cache, err := NewNetCache(nc)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.cache = cache
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() netip.AddrPort {
	return s.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// Cache exposes the service for stats and control-plane reads.
func (s *Server) Cache() *NetCache { return s.cache }

// Drops returns how many datagrams were discarded as malformed.
func (s *Server) Drops() uint64 { return s.drops.Load() }

// respond is the per-shard reply hook. Shard goroutines call it
// serially per shard, so a per-call stack buffer suffices; UDPConn
// serializes concurrent writes internally.
func (s *Server) respond(_ int, req Request, status uint8, val uint64) {
	if !req.Addr.IsValid() {
		return
	}
	var buf [FrameSize]byte
	f := Frame{Op: req.Op, Status: status, Seq: req.Seq, Key: req.Key, Val: val}
	f.Encode(buf[:])
	s.conn.WriteToUDPAddrPort(buf[:], req.Addr)
}

// Serve runs the receive loop until Shutdown, an OpShutdown frame, or
// a socket error. It dispatches each datagram as it arrives; the
// runtime batches what arrives while a shard is busy.
func (s *Server) Serve() error {
	defer close(s.done)

	var buf [65536]byte
	for {
		n, addr, err := s.conn.ReadFromUDPAddrPort(buf[:])
		if err != nil {
			if s.stopping.Load() || errors.Is(err, net.ErrClosed) {
				s.finish()
				return s.runErr
			}
			s.finish()
			if s.runErr != nil {
				return s.runErr
			}
			return fmt.Errorf("serve: read: %w", err)
		}
		f, err := DecodeFrame(buf[:n])
		if err != nil {
			s.drops.Add(1)
			continue
		}
		if f.Op == OpShutdown {
			// Acknowledge after the drain so the client's receipt means
			// every prior request was served.
			s.finish()
			s.respond(0, Request{Op: OpShutdown, Seq: f.Seq, Key: f.Key, Addr: addr}, StatusOK, 0)
			return s.runErr
		}
		req := Request{Op: f.Op, Seq: f.Seq, Key: f.Key, Val: f.Val, Addr: addr}
		if err := s.cache.Dispatch(req); err != nil {
			s.finish()
			return err
		}
	}
}

// finish drains and closes the cache exactly once.
func (s *Server) finish() {
	if s.stopping.CompareAndSwap(false, true) {
		s.runErr = s.cache.Close()
	}
}

// Shutdown stops the receive loop and drains the shards. Safe to call
// concurrently with Serve; blocks until Serve has returned.
func (s *Server) Shutdown() error {
	s.stopping.Store(true)
	s.conn.Close()
	<-s.done
	return s.runErr
}

// Close releases the socket without waiting (Shutdown is the graceful
// path).
func (s *Server) Close() error {
	s.stopping.Store(true)
	return s.conn.Close()
}

// SendShutdown is the client half of the OpShutdown handshake: it sends
// one OpShutdown frame and waits up to timeout for the server's
// StatusOK, reporting whether it arrived.
func SendShutdown(addr *net.UDPAddr, timeout time.Duration) (bool, error) {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return false, fmt.Errorf("serve: shutdown dial: %w", err)
	}
	defer conn.Close()
	var buf [FrameSize]byte
	Frame{Op: OpShutdown, Seq: 1}.Encode(buf[:])
	if _, err := conn.Write(buf[:]); err != nil {
		return false, fmt.Errorf("serve: shutdown write: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	n, err := conn.Read(buf[:])
	if err != nil {
		return false, nil // server may already be gone; not a client error
	}
	f, err := DecodeFrame(buf[:n])
	if err != nil {
		return false, nil
	}
	return f.Op == OpShutdown && f.Status == StatusOK, nil
}
