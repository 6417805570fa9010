package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p4all/internal/ilpgen"
	"p4all/internal/serve"
	"p4all/internal/workload"
)

const (
	// The server under test: netcacheserve -compile with two shards, one
	// per core of the machine the bounds were derived on.
	wireShards = 2
	wireBatch  = 64

	// wire-saturate: closed loop. 2 x 96 kept in flight is 96 a shard,
	// more than a batch, so batches fill and per-request cost, not the
	// 1 ms flush ticker, bounds throughput; 2 x 112 and more at times
	// overflow the server's default 212 992-byte receive buffer (see
	// README.md).
	closedConns    = 2
	closedWindow   = 96
	closedSlots    = 4 * closedWindow
	windowDeadline = 200 * time.Millisecond
	// windowRetries is how many times a request is sent again, and how
	// many deadlines in a row a connection answers by sending again what
	// it has in flight, before the requests are given up: a server silent
	// for three seconds is down, one silent for 200 ms has lost its core
	// to another tenant of the host.
	windowRetries = 15
	zipfUniverse  = 100000
	zipfSkew      = 0.95

	// wire-paced: open loop. 5 frames a millisecond on an absolute
	// schedule, each burst offset within its millisecond by a seeded
	// random amount so that the schedule does not beat against the 1 ms
	// timer ticks of the kernel and of the server's flusher. Batches stay
	// partial, so latency is set by the flush ticker and queueing. At
	// this rate the server's receive buffer rides out a 50 ms stall of
	// its core; at 20 000 req/s it drops requests after 13 ms (see
	// README.md).
	pacedRate     = 5000
	pacedBurst    = 5
	pacedTick     = time.Millisecond
	pacedUniverse = 1000000
	pacedGetShare = 0.7
	// pacedPoll is the longest the open loop's receiver waits for a
	// reply before it looks for requests to send again.
	pacedPoll = 20 * time.Millisecond
	// pacedGiveUp is how long after its due time a request that has had
	// every retransmission counts as lost.
	pacedGiveUp = 3100 * time.Millisecond

	readyCap = 30 * time.Second
	// readyKey probes readiness outside both key universes.
	readyKey = 1 << 40
)

// pacedResend is how long after its due time an unanswered request is
// sent again, each time. UDP promises no delivery: when another tenant of
// the host takes the server's core for longer than its receive buffer
// holds (50 ms of this schedule), the kernel drops what arrives, and a
// client that wants an answer asks again. The reply's latency still runs
// from the request's first due time.
var pacedResend = [...]time.Duration{100 * time.Millisecond, 300 * time.Millisecond, 700 * time.Millisecond, 1500 * time.Millisecond}

// backendVal is the value the server's backend holds for a key and
// putVal the value this benchmark writes to it; both are this
// benchmark's own statement of the protocol, not read from the server.
func backendVal(key uint64) uint64 { return key * 3 }
func putVal(key uint64) uint64     { return key*7 + 1 }

// lockedBuffer collects a child's output while it runs.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// buildServer compiles cmd/netcacheserve into the checkout's
// .bench_build directory and returns the binary and the build's seconds.
func buildServer(root string) (string, float64, error) {
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(dir, "netcacheserve")
	t := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/netcacheserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building netcacheserve: %v\n%s", err, out)
	}
	return bin, time.Since(t).Seconds(), nil
}

// server is one netcacheserve child process.
type server struct {
	cmd    *exec.Cmd
	addr   *net.UDPAddr
	stderr lockedBuffer
	exited chan struct{} // closed once Wait has returned
	startS float64       // process start to first reply
}

// freePort asks the kernel for an unused loopback UDP port by binding
// port 0 and releasing it.
func freePort() (int, error) {
	l, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	port := l.LocalAddr().(*net.UDPAddr).Port
	return port, l.Close()
}

// startServer launches the child and waits until it answers a GET.
func startServer(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{
		addr:   &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port},
		exited: make(chan struct{}),
	}
	t := time.Now()
	s.cmd = exec.Command(bin, "-compile", "-shards", strconv.Itoa(wireShards), "-batch", strconv.Itoa(wireBatch), "-addr", s.addr.String())
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait() // exit status is read from ProcessState in stop
		close(s.exited)
	}()
	if err := s.waitReady(); err != nil {
		s.kill()
		return nil, fmt.Errorf("%w; server said:\n%s", err, s.stderr.String())
	}
	s.startS = time.Since(t).Seconds()
	return s, nil
}

// waitReady retries a GET until the server answers it, then waits for
// the start-up line it wrote before that to come through the pipe.
func (s *server) waitReady() error {
	conn, err := net.DialUDP("udp", nil, s.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var buf [serve.FrameSize]byte
	for deadline := time.Now().Add(readyCap); time.Now().Before(deadline); {
		if s.hasExited() {
			return errors.New("server exited before it was ready")
		}
		serve.Frame{Op: serve.OpGet, Seq: 1, Key: readyKey}.Encode(buf[:])
		if _, err := conn.Write(buf[:]); err == nil {
			conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			if n, err := conn.Read(buf[:]); err == nil {
				if f, err := serve.DecodeFrame(buf[:n]); err == nil && f.Key == readyKey {
					for !shapesRE.MatchString(s.stderr.String()) && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					return nil
				}
			}
		}
		time.Sleep(5 * time.Millisecond) // a refused send returns at once
	}
	return fmt.Errorf("server not ready within %v", readyCap)
}

func (s *server) hasExited() bool {
	select {
	case <-s.exited:
		return true
	default:
		return false
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// peakRSSMB reads the child's resident-set high-water mark from /proc.
// The ru_maxrss that Wait reports is no use here: exec folds the
// forking process's own peak into it, so it reads at least as high as
// this benchmark's memory at the time it started the child.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in the server's /proc status")
}

// stop reads the child's peak resident set in MB, then ends it with the
// OpShutdown handshake, which is one datagram each way and so is tried
// again if no acknowledgement comes, and kills it if it has not exited in
// time. clean is false unless the child then exited by itself with
// status 0.
func (s *server) stop() (rssMB float64, clean bool) {
	rssMB, rssErr := s.peakRSSMB()
	for try := 0; try < 5; try++ {
		// An exit without an acknowledgement: only that datagram was lost.
		if acked, err := serve.SendShutdown(s.addr, time.Second); acked || err != nil || s.hasExited() {
			break
		}
	}
	select {
	case <-s.exited:
		clean = rssErr == nil && s.cmd.ProcessState.Success()
	case <-time.After(10 * time.Second):
		s.kill()
	}
	return rssMB, clean
}

var shapesRE = regexp.MustCompile(`cms (\d+)x(\d+), kv (\d+)x(\d+)`)

// servedLayout reads the cache shapes the server announced on start-up
// and returns them as a layout (the form NewNetCache and NewPlane take)
// with the NetCache utility 0.4*cells + 0.6*items they amount to.
func (s *server) servedLayout() (*ilpgen.Layout, float64, error) {
	m := shapesRE.FindStringSubmatch(s.stderr.String())
	if m == nil {
		return nil, 0, fmt.Errorf("server did not announce its cache shapes:\n%s", s.stderr.String())
	}
	var v [4]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(m[i+1], 10, 64) // the pattern admits digits only
	}
	l := &ilpgen.Layout{Symbolics: map[string]int64{
		"cms_rows": v[0], "cms_cols": v[1], "kv_parts": v[2], "kv_slots": v[3],
	}}
	return l, 0.4*float64(v[0]*v[1]) + 0.6*float64(v[2]*v[3]), nil
}

// loopStats is what one load generator connection observed.
type loopStats struct {
	sent, valid  int // distinct requests, and those validly answered
	hits, misses int
	resent       int       // requests sent again because no reply had come
	strays       int       // undecodable, unknown-sequence or unexplained duplicate replies
	latency      []float64 // seconds, one per valid reply
	buckets      []int     // valid replies per rateBucket of the run, by arrival
	elapsed      float64
}

// rateBucket is the slice of a run its reply rate is taken over.
const rateBucket = 100 * time.Millisecond

// reply records one valid reply that arrived at since the loop's start
// after lat.
func (s *loopStats) reply(status uint8, at, lat time.Duration) {
	s.valid++
	if status == serve.StatusHit {
		s.hits++
	} else if status == serve.StatusMiss {
		s.misses++
	}
	s.latency = append(s.latency, lat.Seconds())
	b := int(at / rateBucket)
	for len(s.buckets) <= b {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[b]++
}

// rate is the median over the run's full buckets of replies per second,
// which a stall shorter than half the run does not move.
func (s loopStats) rate() float64 {
	full := s.buckets
	if len(full) > 1 {
		full = full[:len(full)-1] // the last bucket is partial
	}
	rates := make([]float64, len(full))
	for i, n := range full {
		rates[i] = float64(n) / rateBucket.Seconds()
	}
	return median(rates)
}

// failed counts every request that was wrongly answered or, for all its
// retransmissions, never, plus every reply that should not have arrived.
func (s loopStats) failed() int { return s.sent - s.valid + s.strays }

func (s *loopStats) merge(o loopStats) {
	s.sent += o.sent
	s.valid += o.valid
	s.hits += o.hits
	s.misses += o.misses
	s.resent += o.resent
	s.strays += o.strays
	s.latency = append(s.latency, o.latency...)
	for len(s.buckets) < len(o.buckets) {
		s.buckets = append(s.buckets, 0)
	}
	for i, n := range o.buckets {
		s.buckets[i] += n
	}
	s.elapsed = max(s.elapsed, o.elapsed)
}

// validGet reports whether f answers a GET for key correctly: a miss
// carries the backend value; a hit carries it too, or the value this
// connection has PUT if put is set.
func validGet(f serve.Frame, key uint64, put bool) bool {
	if f.Op != serve.OpGet || f.Key != key {
		return false
	}
	switch f.Status {
	case serve.StatusMiss:
		return f.Val == backendVal(key)
	case serve.StatusHit:
		return f.Val == backendVal(key) || (put && f.Val == putVal(key))
	}
	return false
}

// closedLoop keeps closedWindow GETs in flight on one connection until
// budget has elapsed: every reply is checked against its request by
// sequence number and replaced with the next request at once, so the
// server's batches keep filling without waiting for its flush ticker.
// A request still unanswered once closedSlots later ones have been sent
// was dropped on the way (the server's receive buffer overflows when
// another tenant of the host takes its core) and is sent again, as is
// everything in flight when nothing arrives for windowDeadline; the
// reply's round trip still runs from the first send. A request is lost
// after windowRetries retransmissions, or that many silent deadlines in
// a row.
func closedLoop(addr *net.UDPAddr, keys []uint64, budget time.Duration, rec *recorder) (loopStats, error) {
	var st loopStats
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return st, err
	}
	defer conn.Close()
	type slot struct {
		seq    uint32
		sentAt time.Time
		live   bool
		resent int // replies still to come beyond the first
	}
	var ring [closedSlots]slot
	st.latency = make([]float64, 0, len(keys)) // no growth copies while timing
	var out, in [serve.FrameSize]byte
	send := func(seq uint32) error {
		serve.Frame{Op: serve.OpGet, Seq: seq, Key: keys[int(seq)%len(keys)]}.Encode(out[:])
		if _, err := conn.Write(out[:]); err != nil {
			return fmt.Errorf("client write: %w", err)
		}
		return nil
	}
	start := time.Now()
	inflight, next, silent := 0, uint32(0), 0
	round := rec.start("wire.round", -1)
	for sending := true; sending || inflight > 0; {
		now := time.Now()
		sending = sending && now.Sub(start) < budget
		for ; sending && inflight < closedWindow; next++ {
			sl := &ring[next%closedSlots]
			if sl.live && sl.resent < windowRetries {
				// Unanswered while closedSlots later requests were sent:
				// dropped on the way. It is asked again and keeps its
				// slot, so this sequence number goes unused.
				if err := send(sl.seq); err != nil {
					return st, err
				}
				sl.resent++
				st.resent++
				continue
			}
			if sl.live {
				inflight-- // never answered: lost
			}
			*sl = slot{seq: next, sentAt: now, live: true}
			if err := send(next); err != nil {
				return st, err
			}
			st.sent++
			inflight++
		}
		if inflight == 0 {
			break
		}
		conn.SetReadDeadline(now.Add(windowDeadline))
		n, err := conn.Read(in[:])
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				return st, fmt.Errorf("client read: %w", err)
			}
			if silent++; silent > windowRetries {
				for i := range ring {
					ring[i].live = false // the server is gone: all lost
				}
				inflight = 0
				continue
			}
			for i := range ring {
				if sl := &ring[i]; sl.live {
					if err := send(sl.seq); err != nil {
						return st, err
					}
					sl.resent++
					st.resent++
				}
			}
			continue
		}
		silent = 0
		now = time.Now()
		f, err := serve.DecodeFrame(in[:n])
		sl := &ring[f.Seq%closedSlots]
		if err != nil || sl.seq != f.Seq || !sl.live && sl.resent == 0 {
			st.strays++ // undecodable, given up on already, or one reply too many
			continue
		}
		if !sl.live {
			sl.resent-- // the other reply to a request that was sent twice
			continue
		}
		sl.live = false
		inflight--
		if !validGet(f, keys[int(f.Seq)%len(keys)], false) {
			continue
		}
		st.reply(f.Status, now.Sub(start), now.Sub(sl.sentAt))
		if st.valid%1024 == 0 {
			rec.end(round)
			round = rec.start("wire.round", -1)
		}
	}
	rec.end(round)
	st.elapsed = time.Since(start).Seconds()
	return st, nil
}

// saturate runs the closed loop on closedConns connections at once.
func saturate(addr *net.UDPAddr, keys [][]uint64, budget time.Duration, rec *recorder) (loopStats, error) {
	stats := make([]loopStats, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for c := range keys {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c], errs[c] = closedLoop(addr, keys[c], budget, rec)
		}(c)
	}
	wg.Wait()
	var total loopStats
	for c := range stats {
		if errs[c] != nil {
			return total, errs[c]
		}
		total.merge(stats[c])
	}
	return total, nil
}

// pacedInput is the open loop's request sequence.
type pacedInput struct {
	ops  []uint8
	keys []uint64
	// firstPut is the index of the first PUT of each key that has one.
	firstPut map[uint64]int
	// offset is how far into its tick each burst is due.
	offset []time.Duration
}

func genPaced(seed int64, n int) pacedInput {
	rng := rand.New(rand.NewSource(seed))
	in := pacedInput{ops: make([]uint8, n), keys: make([]uint64, n), firstPut: map[uint64]int{}}
	for i := range in.ops {
		in.keys[i] = uint64(rng.Intn(pacedUniverse))
		in.ops[i] = serve.OpGet
		if rng.Float64() >= pacedGetShare {
			in.ops[i] = serve.OpPut
			if _, ok := in.firstPut[in.keys[i]]; !ok {
				in.firstPut[in.keys[i]] = i
			}
		}
	}
	in.offset = make([]time.Duration, (n+pacedBurst-1)/pacedBurst)
	for b := range in.offset {
		in.offset[b] = time.Duration(rng.Int63n(int64(pacedTick)))
	}
	return in
}

// requests returns the input as the server's request type, for the
// in-process layer measurements.
func (in pacedInput) requests() []serve.Request {
	reqs := make([]serve.Request, len(in.ops))
	for i := range reqs {
		reqs[i] = serve.Request{Op: in.ops[i], Seq: uint32(i + 1), Key: in.keys[i]}
		if in.ops[i] == serve.OpPut {
			reqs[i].Val = putVal(in.keys[i])
		}
	}
	return reqs
}

// pacedStats adds the open loop's own observations.
type pacedStats struct {
	loopStats
	dueSecond []int     // for each latency sample, the second its request was due in
	genLate   []float64 // seconds each burst was sent after its due time
}

// frame is request i as it goes on the wire.
func (in pacedInput) frame(i int) serve.Frame {
	f := serve.Frame{Op: in.ops[i], Seq: uint32(i + 1), Key: in.keys[i]}
	if f.Op == serve.OpPut {
		f.Val = putVal(f.Key)
	}
	return f
}

// openLoop sends the input on one connection as bursts on an absolute
// schedule, sleeping between bursts, while this goroutine receives, and
// sends again whatever has gone unanswered for the times in pacedResend.
// Latency runs from a request's due time, so a stall in the generator or
// the server, or a datagram the kernel dropped, is charged to every
// request it delays. A request is lost when it is still unanswered
// pacedGiveUp after it was due. again says the server has already been
// sent this input once, so any key the input PUTs may already hold that
// value.
func openLoop(addr *net.UDPAddr, in pacedInput, again bool, rec *recorder) (pacedStats, error) {
	var st pacedStats
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return st, err
	}
	defer conn.Close()
	n := len(in.ops)
	t0 := time.Now().Add(2 * pacedTick)
	due := func(i int) time.Time {
		b := i / pacedBurst
		return t0.Add(time.Duration(b)*pacedTick + in.offset[b])
	}

	var stop atomic.Bool
	var sent atomic.Int64 // requests [0, sent) have been sent once
	var sendErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		var out [serve.FrameSize]byte
		for i := 0; i < n && !stop.Load(); {
			if d := time.Until(due(i)); d > 0 {
				time.Sleep(d)
			}
			st.genLate = append(st.genLate, time.Since(due(i)).Seconds())
			id := rec.start("wire.burst", -1)
			for end := min(i+pacedBurst, n); i < end; i++ {
				in.frame(i).Encode(out[:])
				if _, err := conn.Write(out[:]); err != nil {
					sendErr = fmt.Errorf("client write: %w", err)
					return
				}
			}
			sent.Store(int64(i))
			rec.end(id)
		}
	}()
	abort := func(err error) (pacedStats, error) {
		stop.Store(true)
		<-done
		return st, err
	}

	seen := make([]bool, n)
	resent := make([]uint8, n) // per request: replies that may still come beyond the first
	// cursor[k] is the first request not yet considered for its k-th
	// retransmission; due times ascend, so each walks the input once.
	var cursor [len(pacedResend)]int
	var buf, out [serve.FrameSize]byte
	last := t0
	end := due(n - 1).Add(pacedGiveUp)
	for got := 0; got < n; {
		now := time.Now()
		for k, after := range pacedResend {
			for c := &cursor[k]; *c < int(sent.Load()) && now.Sub(due(*c)) >= after; *c++ {
				if seen[*c] {
					continue
				}
				in.frame(*c).Encode(out[:])
				if _, err := conn.Write(out[:]); err != nil {
					return abort(fmt.Errorf("client write: %w", err))
				}
				resent[*c]++
				st.resent++
			}
		}
		conn.SetReadDeadline(now.Add(pacedPoll))
		nb, err := conn.Read(buf[:])
		now = time.Now()
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				return abort(fmt.Errorf("client read: %w", err))
			}
			if int(sent.Load()) == n && now.After(end) {
				break // everything still missing is lost
			}
			select {
			case <-done:
				if sendErr != nil {
					return st, sendErr
				}
			default:
			}
			continue
		}
		f, err := serve.DecodeFrame(buf[:nb])
		i := int(f.Seq) - 1
		if err != nil || i < 0 || i >= n || seen[i] && resent[i] == 0 {
			st.strays++
			continue
		}
		if seen[i] {
			resent[i]-- // the other reply to a request that was sent twice
			continue
		}
		seen[i] = true
		got++
		key := in.keys[i]
		if in.ops[i] == serve.OpPut {
			if f.Op != serve.OpPut || f.Key != key || f.Status != serve.StatusOK || f.Val != putVal(key) {
				continue
			}
		} else {
			// A GET that was sent again may have been served after a
			// later PUT of its key.
			first, put := in.firstPut[key]
			if !validGet(f, key, put && (again || first < i || resent[i] > 0)) {
				continue
			}
		}
		st.reply(f.Status, now.Sub(t0), now.Sub(due(i)))
		st.dueSecond = append(st.dueSecond, i/pacedRate)
		last = now
	}
	stop.Store(true)
	<-done
	st.sent = int(sent.Load())
	st.elapsed = last.Sub(t0).Seconds()
	return st, sendErr
}

// segmentP99 is the median, over the run's one-second segments, of each
// segment's 99th-percentile latency (50 samples lie beyond it at the
// paced rate).
func (st pacedStats) segmentP99() float64 {
	bySecond := map[int][]float64{}
	for i, l := range st.latency {
		bySecond[st.dueSecond[i]] = append(bySecond[st.dueSecond[i]], l)
	}
	var p99s []float64
	for _, ls := range bySecond {
		p99s = append(p99s, quantile(ls, 0.99))
	}
	return median(p99s)
}

// wireState is a started server and the inputs to drive it with.
type wireState struct {
	srv   *server
	zipf  [][]uint64 // wire-saturate: one key stream per connection
	paced pacedInput // wire-paced: the request sequence
}

// runWire measures wire → reply against a real netcacheserve child over
// loopback UDP (not a real link): closed loop at saturation, or open
// loop at a fixed rate when paced is set.
func runWire(cfg config, paced bool) (*result, error) {
	r := newResult(cfg)
	bin, buildS, err := buildServer(cfg.root)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	// A traced run drives the server twice, untraced then traced, and
	// spends the last third in process.
	loopBudget := budget
	if cfg.trace {
		loopBudget = budget / 3
	}
	var starts []float64
	// stop ends a server and returns its peak memory; an unclean exit is
	// a failed operation.
	stop := func(srv *server) float64 {
		rss, clean := srv.stop()
		if !clean {
			r.fail(1, "server did not shut down cleanly:\n%s", srv.stderr.String())
		}
		return rss
	}
	state, err := repeatSetup(cfg, r, func() (wireState, error) {
		var s wireState
		if paced {
			s.paced = genPaced(cfg.seed, int(loopBudget.Seconds()*pacedRate))
		} else {
			// Enough keys for 150 000 replies a second per connection;
			// a faster server wraps around.
			n := int(loopBudget.Seconds()*150000) + closedWindow
			for c := 0; c < closedConns; c++ {
				s.zipf = append(s.zipf, workload.ZipfKeys(cfg.seed+int64(c)*7919, zipfUniverse, zipfSkew, n))
			}
		}
		srv, err := startServer(bin)
		if err != nil {
			return s, err
		}
		s.srv = srv
		starts = append(starts, srv.startS)
		return s, nil
	}, func(s wireState) { stop(s.srv) })
	if err != nil {
		return nil, err
	}
	srv := state.srv
	layout, served, err := srv.servedLayout()
	if err != nil {
		srv.kill()
		return nil, err
	}

	// drive runs one load phase and charges its requests to the result.
	drive := func(rec *recorder) (pacedStats, error) {
		var st pacedStats
		var err error
		if paced {
			st, err = openLoop(srv.addr, state.paced, rec != nil, rec)
		} else {
			st.loopStats, err = saturate(srv.addr, state.zipf, loopBudget, rec)
		}
		r.attempted += st.sent
		if n := st.failed(); n > 0 {
			r.fail(n, "%d of %d requests lost or wrongly answered (%d sent again, %d stray replies)", st.sent-st.valid, st.sent, st.resent, st.strays)
		}
		return st, err
	}
	// opMS is the workload's operation time: the median round trip at
	// saturation, the median latency from due time when paced.
	opMS := func(st pacedStats) float64 { return 1e3 * median(st.latency) }

	st, err := drive(nil)
	if err != nil {
		srv.kill()
		return nil, err
	}
	if !cfg.trace {
		r.set("op_ms", opMS(st))
		r.samples["op_ms"] = len(st.latency)
		if paced {
			// The schedule sets the rate: replies over the whole run.
			r.set("ops_per_s", float64(st.valid)/st.elapsed)
		} else {
			r.set("ops_per_s", st.rate())
		}
		r.set("layout_utility", served)
		r.set("peak_rss_mb", stop(srv))
		return r, nil
	}

	r.rec = newRecorder()
	traced, err := drive(r.rec)
	rss := stop(srv)
	if err != nil {
		return nil, err
	}
	r.set("bench.trace_overhead_pct", 100*(opMS(traced)/opMS(st)-1))
	r.set("bench.build_s", buildS)
	r.setMedian("wire.server_start_s", starts)
	r.set("wire.server_rss_mb", rss)
	r.set("wire.hit_rate", float64(st.hits)/float64(max(st.hits+st.misses, 1)))
	r.set("wire.lost", float64(st.resent+st.sent-st.valid))
	r.set("wire.p50_us", 1e6*median(st.latency))
	r.set("wire.p999_us", 1e6*quantile(st.latency, 0.999))
	var reqs []serve.Request
	if paced {
		r.set("wire.p99_us", 1e6*st.segmentP99())
		r.set("wire.gen_late_p99_us", 1e6*quantile(st.genLate, 0.99))
		reqs = state.paced.requests()
	} else {
		r.set("wire.p99_us", 1e6*quantile(st.latency, 0.99))
		keys := state.zipf[0]
		reqs = make([]serve.Request, min(len(keys), 1<<18))
		for i := range reqs {
			reqs[i] = serve.Request{Op: serve.OpGet, Seq: uint32(i), Key: keys[i]}
		}
	}
	if err := wireLayers(r, layout, reqs, budget/3); err != nil {
		return nil, err
	}
	if !paced {
		// At saturation, what a reply costs beyond the in-process
		// service is the socket path: receive, decode, encode and send.
		r.set("serve.socket.ns_per_req", 1e9/st.rate()-r.values["serve.netcache.ns_per_req"])
	}
	finishTrace(r)
	return r, nil
}
