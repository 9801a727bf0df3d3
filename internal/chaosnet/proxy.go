package chaosnet

import (
	"errors"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a standalone TCP relay that applies the fault layer to real
// connections, so an unmodified fleet can be soaked against an adversarial
// wire: the partition soak points a front at proxy addresses and each proxy
// at its true sosd backend. Fault plans are per accepted connection, drawn
// from the proxy's label stream in accept order.
type Proxy struct {
	cfg     Config
	stream  uint64
	backend string
	ln      net.Listener
	start   time.Time
	idx     uint64

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	stats Stats
}

// NewProxy listens on listenAddr and relays every accepted connection to
// backendAddr through the fault layer. The label names this proxy's fault
// stream: distinct labels (one per backend) draw independent schedules from
// the same seed. The partition clock starts now.
func NewProxy(cfg Config, listenAddr, backendAddr, label string) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	io.WriteString(h, label)
	p := &Proxy{
		cfg:     cfg,
		stream:  h.Sum64(),
		backend: backendAddr,
		ln:      ln,
		start:   time.Now(),
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats returns a snapshot of the injected-fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Exchanges:   atomic.LoadUint64(&p.stats.Exchanges),
		Latencies:   atomic.LoadUint64(&p.stats.Latencies),
		Resets:      atomic.LoadUint64(&p.stats.Resets),
		Corruptions: atomic.LoadUint64(&p.stats.Corruptions),
		Truncations: atomic.LoadUint64(&p.stats.Truncations),
		Stalls:      atomic.LoadUint64(&p.stats.Stalls),
		Partitions:  atomic.LoadUint64(&p.stats.Partitions),
	}
}

// Close stops accepting, severs every relayed connection, and waits for all
// proxy goroutines to exit.
func (p *Proxy) Close() error {
	p.closeOnce.Do(func() {
		close(p.done)
		p.ln.Close()
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	})
	p.wg.Wait()
	return nil
}

// track registers a connection for teardown; it returns false if the proxy
// is already closing (the caller must close the connection itself).
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.done:
		return false
	default:
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		idx := atomic.AddUint64(&p.idx, 1) - 1
		p.wg.Add(1)
		go p.handle(c, idx)
	}
}

// sleep waits for d or until the proxy closes; it reports whether the full
// duration elapsed.
func (p *Proxy) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	tmr := time.NewTimer(d)
	defer tmr.Stop()
	select {
	case <-p.done:
		return false
	case <-tmr.C:
		return true
	}
}

// holdPartition blocks while the blackhole window is open; it reports false
// if the proxy closed during the hold.
func (p *Proxy) holdPartition() bool {
	counted := false
	for {
		open, remain := p.cfg.Partitioned(time.Since(p.start))
		if !open {
			return true
		}
		if !counted {
			atomic.AddUint64(&p.stats.Partitions, 1)
			counted = true
		}
		if remain > 50*time.Millisecond {
			remain = 50 * time.Millisecond
		}
		if !p.sleep(remain) {
			return false
		}
	}
}

// handle relays one accepted connection through its fault plan.
func (p *Proxy) handle(client net.Conn, idx uint64) {
	defer p.wg.Done()
	if !p.track(client) {
		client.Close()
		return
	}
	defer p.untrack(client)
	defer client.Close()

	f := p.cfg.Plan(p.stream, idx)
	atomic.AddUint64(&p.stats.Exchanges, 1)

	// A connection arriving inside a partition window hangs at the door,
	// exactly like a SYN lost to a blackhole, until the window closes.
	if !p.holdPartition() {
		return
	}
	if f.Reset {
		atomic.AddUint64(&p.stats.Resets, 1)
		// Linger 0 turns Close into an RST, so the client observes a true
		// connection reset rather than a clean EOF.
		if tc, ok := client.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		return
	}

	backend, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		return
	}
	if !p.track(backend) {
		backend.Close()
		return
	}
	defer p.untrack(backend)
	defer backend.Close()

	var pumps sync.WaitGroup
	pumps.Add(2)
	// Client -> backend: bytes pass untouched, but a partition window
	// freezes the pump (requests in flight hang, like a real L3 blackhole).
	go func() {
		defer pumps.Done()
		defer client.Close()
		defer backend.Close()
		buf := make([]byte, 16<<10)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if !p.holdPartition() {
					return
				}
				if _, werr := backend.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	// Backend -> client: the faulted direction — latency before the first
	// byte, a single bit flip at the planned offset, an early hangup at the
	// truncation offset, a slow-loris pause at the stall offset, and the
	// same partition freeze.
	go func() {
		defer pumps.Done()
		defer client.Close()
		defer backend.Close()
		buf := make([]byte, 16<<10)
		var off uint64
		first, stalled := true, false
		for {
			n, err := backend.Read(buf)
			if n > 0 {
				chunk := buf[:n]
				if first {
					first = false
					if f.Latency > 0 {
						atomic.AddUint64(&p.stats.Latencies, 1)
						if !p.sleep(f.Latency) {
							return
						}
					}
				}
				if f.Corrupt && f.CorruptAt >= off && f.CorruptAt < off+uint64(n) {
					chunk[f.CorruptAt-off] ^= 1 << f.CorruptBit
					atomic.AddUint64(&p.stats.Corruptions, 1)
					f.Corrupt = false
				}
				if f.Stall && !stalled && off >= f.StallAt {
					stalled = true
					atomic.AddUint64(&p.stats.Stalls, 1)
					if !p.sleep(p.cfg.stallFor()) {
						return
					}
				}
				if !p.holdPartition() {
					return
				}
				if f.Truncate && off+uint64(n) >= f.TruncateAt {
					atomic.AddUint64(&p.stats.Truncations, 1)
					client.Write(chunk[:f.TruncateAt-off])
					return
				}
				if _, werr := client.Write(chunk); werr != nil {
					return
				}
				off += uint64(n)
			}
			if err != nil {
				return
			}
		}
	}()
	pumps.Wait()
}
