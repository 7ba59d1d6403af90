// Package sched implements the process-wide worker pool shared by
// concurrent planning runs: admission control over whole plans, and the
// workers their audits run on.
//
// # Why a shared pool
//
// A plan is one serial search followed by an audit that replays the plan
// on several lanes. Sizing those lanes from GOMAXPROCS is correct for one
// plan but oversubscribes the host N-fold when N plans run concurrently,
// and starting N searches at once does the same. The pool admits plans
// against a fixed worker budget (a registration reserves its minimum
// share and blocks, or preempts, when the budget is spent) and replaces
// per-plan goroutine spawning with a fixed set of workers that any
// registered plan's task batches can draw on: a plan busy searching
// donates its share to the others, and a plan auditing soaks up whatever
// is idle.
//
// # Task model
//
// The unit of submission is a batch: a slice of independent closures (one
// incremental-audit span set) executed by Client.Run, which blocks until
// all of them finish. Workers claim tasks from a batch through an atomic
// cursor, so a batch is drained cooperatively by however many workers
// reach it — and always by the submitting goroutine itself, which
// guarantees progress at any share, including zero. Because the callers'
// closures only write worker-private result slots, executing them on pool
// workers at any interleaving is byte-identical to executing them on
// per-plan goroutines: the pool changes where work runs, never what is
// computed.
//
// # Shares, stealing, preemption
//
// Each registered client holds a share — the maximum number of pool
// workers that serve its batches concurrently — rebalanced on every
// register/close as an equal split of the worker budget clamped to the
// client's [MinShare, MaxShare]. Admission blocks while the sum of
// minimum shares would exceed the budget; a registration that cannot be
// admitted first preempts strictly lower-priority clients (their
// Preempted channel closes, their share drops to zero, and their
// reservation is released — the planner checkpoints via the existing
// *Interrupted machinery and re-registers later), and only waits when
// nothing is preemptible. Idle workers prefer the client they last
// served (keeping a warm claim locality); claiming from a different
// client counts as a steal (sched.steals). Queue-wait time from batch
// enqueue to the first pool-worker claim accumulates into
// sched.queue_wait_ns.
package sched

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"klotski/internal/obs"
)

// ErrPoolClosed is returned by Register after Pool.Close.
var ErrPoolClosed = errors.New("sched: pool closed")

// testHook, when non-nil, runs inside pool workers before every claimed
// task. Tests install seeded random delays to shuffle claim interleavings
// and prove byte-identity is interleaving-independent.
var testHook func()

// Pool is a fixed-size worker pool shared by concurrent plans.
type Pool struct {
	workers int
	rec     *obs.Recorder

	mu      sync.Mutex
	cond    *sync.Cond
	clients []*Client
	closed  bool
	wg      sync.WaitGroup
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

	// MaxShare caps the client's rebalanced share (0 means the full
	// worker budget).
	MaxShare int
}

// Client is one registered plan's handle on the pool.
type Client struct {
	pool *Pool
	name string
	prio int
	min  int
	max  int

	// Guarded by pool.mu.
	share      int
	active     int // pool workers currently draining this client's batches
	batches    []*batch
	preempting bool
	closed     bool

	preempted chan struct{}
}

// batch is one submitted slice of independent task closures with an
// atomic claim cursor. Claimed via next, completion tracked via done;
// fin closes when every task has finished.
type batch struct {
	tasks  []func()
	next   atomic.Int64
	done   atomic.Int64
	fin    chan struct{}
	enq    time.Time
	waited atomic.Bool
}

// NewPool starts a pool with the given worker budget (0 or negative
// selects GOMAXPROCS). rec (nil-safe) receives the sched.* counters.
func NewPool(workers int, rec *obs.Recorder) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, rec: rec}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Workers returns the pool's worker budget.
func (p *Pool) Workers() int { return p.workers }

// Close shuts the pool down and joins its workers. Batches submitted
// before Close still complete (the submitting goroutines drain them);
// Run calls after Close execute inline on the caller.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Register admits a plan to the pool, blocking until the reservation
// fits the worker budget. A blocked registration preempts strictly
// lower-priority clients first (closing their Preempted channel and
// zeroing their share — their reservation is released immediately, on
// the grounds that a preempted planner checkpoints and closes promptly)
// and waits only when nothing is preemptible.
func (p *Pool) Register(name string, opts ClientOptions) (*Client, error) {
	min := opts.MinShare
	if min < 1 {
		min = 1
	}
	if min > p.workers {
		min = p.workers
	}
	max := opts.MaxShare
	if max <= 0 || max > p.workers {
		max = p.workers
	}
	if max < min {
		max = min
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
	c := &Client{
		pool:      p,
		name:      name,
		prio:      opts.Priority,
		min:       min,
		max:       max,
		preempted: make(chan struct{}),
	}
	p.clients = append(p.clients, c)
	p.rebalanceLocked()
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
		p.rec.SchedPreemption()
	}
	if did {
		p.rebalanceLocked()
	}
	return did
}

// rebalanceLocked recomputes every client's share: preempting clients
// get zero (pool workers abandon them; only the submitter drains their
// in-flight batches), the rest split the worker budget evenly, clamped
// to [MinShare, MaxShare], leftovers round-robin in registration order.
func (p *Pool) rebalanceLocked() {
	total := 0
	var active []*Client
	for _, c := range p.clients {
		if c.preempting {
			c.share = 0
			continue
		}
		c.share = c.min
		total += c.min
		active = append(active, c)
	}
	for total < p.workers {
		grew := false
		for _, c := range active {
			if total >= p.workers {
				break
			}
			if c.share < c.max {
				c.share++
				total++
				grew = true
			}
		}
		if !grew {
			break
		}
	}
}

// Preempted returns a channel that closes when the pool preempts this
// client. The owner should checkpoint its plan, Close the client to
// release its reservation, and re-Register later to resume.
func (c *Client) Preempted() <-chan struct{} { return c.preempted }

// Share returns the client's current share — the number of pool workers
// that may serve it concurrently (0 while preempted). Plans size their
// audit lanes from it.
func (c *Client) Share() int {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return c.share
}

// Close deregisters the client, releasing its reservation and waking
// blocked registrations. In-flight Run calls must have returned.
func (c *Client) Close() {
	p := c.pool
	p.mu.Lock()
	if c.closed {
		p.mu.Unlock()
		return
	}
	c.closed = true
	c.share = 0
	for i, q := range p.clients {
		if q == c {
			p.clients = append(p.clients[:i], p.clients[i+1:]...)
			break
		}
	}
	p.rebalanceLocked()
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Run executes the given independent task closures and returns when all
// have finished. The calling goroutine always helps drain the batch, so
// Run makes progress at any share — including zero (preempted) and on a
// closed pool, where it simply runs every task inline. Tasks must not
// call Run on the same client recursively.
func (c *Client) Run(tasks []func()) {
	switch len(tasks) {
	case 0:
		return
	case 1:
		tasks[0]()
		return
	}
	b := &batch{tasks: tasks, fin: make(chan struct{}), enq: time.Now()}
	p := c.pool
	p.mu.Lock()
	if c.closed || p.closed {
		p.mu.Unlock()
		for _, t := range tasks {
			t()
		}
		return
	}
	c.batches = append(c.batches, b)
	p.mu.Unlock()
	p.cond.Broadcast()
	b.drain(nil)
	<-b.fin
	p.mu.Lock()
	for i, q := range c.batches {
		if q == b {
			c.batches = append(c.batches[:i], c.batches[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
}

// drain claims and executes tasks from b until the cursor is exhausted,
// closing fin after the last task completes. hook is the test-only delay
// hook (nil on the submitter path: only pool workers shuffle).
func (b *batch) drain(hook func()) {
	n := int64(len(b.tasks))
	for {
		i := b.next.Add(1) - 1
		if i >= n {
			return
		}
		if hook != nil {
			hook()
		}
		b.tasks[i]()
		if b.done.Add(1) == n {
			close(b.fin)
		}
	}
}

// worker is one pool goroutine: find a client with claimable work and an
// open share slot (preferring the client served last), drain the batch,
// repeat; park on the condition variable when nothing is claimable.
func (p *Pool) worker() {
	defer p.wg.Done()
	var last *Client
	for {
		p.mu.Lock()
		var c *Client
		var b *batch
		for {
			if p.closed {
				p.mu.Unlock()
				return
			}
			c, b = p.findLocked(last)
			if b != nil {
				break
			}
			p.cond.Wait()
		}
		c.active++
		stolen := last != nil && c != last
		p.mu.Unlock()
		if stolen {
			p.rec.SchedSteal()
		}
		if b.waited.CompareAndSwap(false, true) {
			p.rec.SchedQueueWait(time.Since(b.enq))
		}
		b.drain(testHook)
		p.mu.Lock()
		c.active--
		if c.claimableLocked() != nil && c.active < c.share {
			// Unclaimed work remains and the share slot just freed: give
			// parked workers (and blocked registrations, harmlessly) a
			// chance to pick it up rather than relying on this worker's
			// own rescan.
			p.cond.Broadcast()
		}
		last = c
		p.mu.Unlock()
	}
}

// findLocked picks a client with claimable work whose share admits
// another worker, preferring last (claim locality). Preempted clients
// have share 0 and are never picked.
func (p *Pool) findLocked(last *Client) (*Client, *batch) {
	if last != nil && !last.closed && last.active < last.share {
		if b := last.claimableLocked(); b != nil {
			return last, b
		}
	}
	for _, c := range p.clients {
		if c == last || c.active >= c.share {
			continue
		}
		if b := c.claimableLocked(); b != nil {
			return c, b
		}
	}
	return nil, nil
}

// claimableLocked returns a batch of c with unclaimed tasks, or nil.
func (c *Client) claimableLocked() *batch {
	for _, b := range c.batches {
		if b.next.Load() < int64(len(b.tasks)) {
			return b
		}
	}
	return nil
}
