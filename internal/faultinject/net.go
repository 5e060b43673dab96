package faultinject

import (
	"math/rand"
	"net"
	"sync"
)

// ConnOptions configures the network faults a Listener injects into each
// accepted connection. All randomness is drawn from one seeded generator,
// so a failing run replays exactly from its seed.
type ConnOptions struct {
	// Seed drives the per-connection drop-point draws. The same seed and
	// the same accept order reproduce the same faults.
	Seed int64
	// DropAfter severs a connection once roughly this many bytes have
	// moved through it (reads + writes combined): the underlying conn is
	// closed and the pending operation returns ErrInjected — a mid-stream
	// drop, what a flapping link or an LB kill looks like. 0 disables.
	DropAfter int64
	// DropJitter widens the drop point by a seeded amount in
	// [0, DropJitter), so repeated connections die at different offsets.
	DropJitter int64
}

// Listener wraps a net.Listener so every accepted connection carries the
// configured faults. Beyond per-connection behavior it supports explicit
// network control: Partition() makes the endpoint unreachable (new
// connections are accepted and immediately closed — a dial that works but
// a peer that never answers) and severs every live connection; Heal()
// restores it.
type Listener struct {
	net.Listener
	opts ConnOptions

	mu          sync.Mutex
	rng         *rand.Rand
	conns       map[*Conn]struct{}
	partitioned bool
}

// WrapListener wraps ln with the given fault options.
func WrapListener(ln net.Listener, opts ConnOptions) *Listener {
	return &Listener{
		Listener: ln,
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		conns:    make(map[*Conn]struct{}),
	}
}

// Accept wraps the next connection with the configured faults. While
// partitioned, connections are still accepted — so the dialer sees no
// error — but closed before any byte moves.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		if l.partitioned {
			l.mu.Unlock()
			c.Close()
			// Hand the dead conn out anyway: the peer's first Read/Write
			// fails, which is exactly what a partitioned endpoint does.
			return c, nil
		}
		fc := &Conn{Conn: c, budget: -1, release: l.forget}
		if l.opts.DropAfter > 0 {
			fc.budget = l.opts.DropAfter
			if l.opts.DropJitter > 0 {
				fc.budget += l.rng.Int63n(l.opts.DropJitter)
			}
		}
		l.conns[fc] = struct{}{}
		l.mu.Unlock()
		return fc, nil
	}
}

// forget drops a closed connection from the live set.
func (l *Listener) forget(c *Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// Partition makes the endpoint unreachable: every live connection is
// severed mid-stream and new ones die before their first byte.
func (l *Listener) Partition() {
	l.mu.Lock()
	l.partitioned = true
	live := make([]*Conn, 0, len(l.conns))
	for c := range l.conns {
		live = append(live, c)
	}
	l.conns = make(map[*Conn]struct{})
	l.mu.Unlock()
	for _, c := range live {
		c.sever()
	}
}

// Heal ends a partition; existing severed connections stay dead, new
// accepts behave normally again.
func (l *Listener) Heal() {
	l.mu.Lock()
	l.partitioned = false
	l.mu.Unlock()
}

// Conn injects a byte-budget mid-stream drop into one connection. Once the
// budget is spent (or sever is called) the underlying conn is closed and
// every further operation returns ErrInjected.
type Conn struct {
	net.Conn
	release func(*Conn)

	mu     sync.Mutex
	budget int64 // bytes remaining before the drop; <0 means unlimited
	dead   bool
}

// charge spends n bytes of the drop budget, reporting whether the
// connection survives. On exhaustion the conn is severed with at most the
// remaining budget transferred, mimicking a tear at an arbitrary offset.
func (c *Conn) charge(n int) (allowed int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, false
	}
	if c.budget < 0 {
		return n, true
	}
	if int64(n) <= c.budget {
		c.budget -= int64(n)
		return n, true
	}
	allowed = int(c.budget)
	c.budget = 0
	c.dead = true
	return allowed, false
}

// sever kills the connection immediately.
func (c *Conn) sever() {
	c.mu.Lock()
	already := c.dead
	c.dead = true
	c.mu.Unlock()
	if !already {
		c.Conn.Close()
	}
}

// Read implements net.Conn with the drop budget applied.
func (c *Conn) Read(p []byte) (int, error) {
	allowed, ok := c.charge(len(p))
	if !ok && allowed == 0 {
		c.Conn.Close()
		return 0, ErrInjected
	}
	n, err := c.Conn.Read(p[:allowed])
	if !ok {
		c.Conn.Close()
		if err == nil {
			err = ErrInjected
		}
	}
	return n, err
}

// Write implements net.Conn with the drop budget applied.
func (c *Conn) Write(p []byte) (int, error) {
	allowed, ok := c.charge(len(p))
	if !ok && allowed == 0 {
		c.Conn.Close()
		return 0, ErrInjected
	}
	n, err := c.Conn.Write(p[:allowed])
	if !ok {
		c.Conn.Close()
		if err == nil {
			err = ErrInjected
		}
	}
	return n, err
}

// Close closes the underlying connection and forgets it on the listener.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	if c.release != nil {
		c.release(c)
	}
	return c.Conn.Close()
}
