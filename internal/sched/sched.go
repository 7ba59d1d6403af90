// Package sched implements the process-wide admission pool shared by
// concurrent planning runs.
//
// # Why a shared pool
//
// A plan is one serial search followed by a serial audit, all on the
// caller's goroutine. Starting N plans at once oversubscribes the host
// N-fold. The pool admits plans against a fixed worker budget: a
// registration reserves its minimum share and blocks, or preempts, when
// the budget is spent. The pool runs nothing itself; it only decides which
// plans may run.
//
// # Admission and preemption
//
// Admission blocks while the sum of admitted clients' minimum shares would
// exceed the budget. A registration that cannot be admitted first preempts
// strictly lower-priority clients, lowest priority first: their Preempted
// channel closes and their reservation is released at once (the planner
// checkpoints via the *Interrupted machinery and re-registers later). It
// waits only when nothing is preemptible, until a Close frees a
// reservation.
package sched

import (
	"errors"
	"runtime"
	"sync"

	"klotski/internal/obs"
)

// ErrPoolClosed is returned by Register after Pool.Close.
var ErrPoolClosed = errors.New("sched: pool closed")

// Pool admits concurrent plans against a fixed worker budget.
type Pool struct {
	workers int
	rec     *obs.Recorder

	mu      sync.Mutex
	cond    *sync.Cond
	clients []*Client
	closed  bool
}

// ClientOptions parameterizes one plan's registration.
type ClientOptions struct {
	// Priority orders preemption: a blocked registration preempts
	// registered clients with strictly lower priority. Default 0.
	Priority int

	// MinShare is the worker reservation admission control blocks on
	// (clamped to [1, pool workers]; 0 means 1). The sum of admitted
	// clients' MinShares never exceeds the pool's worker budget.
	MinShare int
}

// Client is one registered plan's handle on the pool.
type Client struct {
	pool *Pool
	prio int
	min  int

	// Guarded by pool.mu.
	preempting bool
	closed     bool

	preempted chan struct{}
}

// NewPool returns a pool with the given worker budget (0 or negative
// selects GOMAXPROCS). rec (nil-safe) receives sched.preemptions.
func NewPool(workers int, rec *obs.Recorder) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, rec: rec}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Workers returns the pool's worker budget.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the pool down: blocked and later registrations return
// ErrPoolClosed. Admitted clients keep running and may still Close.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Register admits a plan to the pool, blocking until the reservation
// fits the worker budget. A blocked registration preempts strictly
// lower-priority clients first (closing their Preempted channel — their
// reservation is released immediately, on the grounds that a preempted
// planner checkpoints and closes promptly) and waits only when nothing is
// preemptible. name identifies the plan to its caller and is not used by
// the pool.
func (p *Pool) Register(name string, opts ClientOptions) (*Client, error) {
	min := opts.MinShare
	if min < 1 {
		min = 1
	}
	if min > p.workers {
		min = p.workers
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, ErrPoolClosed
		}
		reserved := 0
		for _, c := range p.clients {
			if !c.preempting {
				reserved += c.min
			}
		}
		if reserved+min <= p.workers {
			break
		}
		if !p.preemptLocked(opts.Priority, reserved+min-p.workers) {
			p.cond.Wait() // nothing preemptible; wait for a Close
		}
	}
	c := &Client{pool: p, prio: opts.Priority, min: min, preempted: make(chan struct{})}
	p.clients = append(p.clients, c)
	return c, nil
}

// preemptLocked signals preemption on lower-priority victims until need
// reservation slots are freed or no victims remain, lowest priority
// first. Reports whether any client was preempted.
func (p *Pool) preemptLocked(prio, need int) bool {
	did := false
	for need > 0 {
		var victim *Client
		for _, c := range p.clients {
			if c.preempting || c.prio >= prio {
				continue
			}
			if victim == nil || c.prio < victim.prio {
				victim = c
			}
		}
		if victim == nil {
			break
		}
		victim.preempting = true
		close(victim.preempted)
		need -= victim.min
		did = true
		p.rec.Add(obs.SchedPreemptions, 1)
	}
	return did
}

// Preempted returns a channel that closes when the pool preempts this
// client. The owner should checkpoint its plan, Close the client to
// release its reservation, and re-Register later to resume.
func (c *Client) Preempted() <-chan struct{} { return c.preempted }

// Close deregisters the client, releasing its reservation and waking
// blocked registrations.
func (c *Client) Close() {
	p := c.pool
	p.mu.Lock()
	if c.closed {
		p.mu.Unlock()
		return
	}
	c.closed = true
	for i, q := range p.clients {
		if q == c {
			p.clients = append(p.clients[:i], p.clients[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Run executes tasks one after another on the calling goroutine.
//
// Deprecated: the pool runs no tasks; nothing in the planner submits any.
func (c *Client) Run(tasks []func()) {
	for _, t := range tasks {
		t()
	}
}
