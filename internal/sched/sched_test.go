package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"klotski/internal/obs"
)

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			p := NewPool(workers, nil)
			c, err := p.Register("t", ClientOptions{})
			if err != nil {
				t.Fatalf("register: %v", err)
			}
			ran := make([]atomic.Int32, n)
			tasks := make([]func(), n)
			for i := range tasks {
				i := i
				tasks[i] = func() { ran[i].Add(1) }
			}
			c.Run(tasks)
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
			c.Close()
			p.Close()
		}
	}
}

func TestRunInlineOnClosedPool(t *testing.T) {
	p := NewPool(2, nil)
	c, err := p.Register("t", ClientOptions{})
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	p.Close()
	var ran atomic.Int32
	tasks := make([]func(), 8)
	for i := range tasks {
		tasks[i] = func() { ran.Add(1) }
	}
	c.Run(tasks)
	if got := ran.Load(); got != 8 {
		t.Fatalf("ran %d of 8 tasks after Close", got)
	}
	if _, err := p.Register("late", ClientOptions{}); err != ErrPoolClosed {
		t.Fatalf("Register after Close: err = %v, want ErrPoolClosed", err)
	}
}

func TestAdmissionBlocksUntilReservationFrees(t *testing.T) {
	p := NewPool(2, nil)
	defer p.Close()
	a, err := p.Register("a", ClientOptions{MinShare: 2})
	if err != nil {
		t.Fatalf("register a: %v", err)
	}
	admitted := make(chan *Client)
	go func() {
		b, err := p.Register("b", ClientOptions{MinShare: 1})
		if err != nil {
			t.Errorf("register b: %v", err)
		}
		admitted <- b
	}()
	select {
	case <-admitted:
		t.Fatal("b admitted while a held the full reservation")
	case <-time.After(50 * time.Millisecond):
	}
	a.Close()
	select {
	case b := <-admitted:
		b.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("b never admitted after a closed")
	}
}

func TestPreemptionEvictsLowerPriority(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(2, obs.NewRecorder(reg))
	defer p.Close()
	low, err := p.Register("low", ClientOptions{Priority: 0, MinShare: 2})
	if err != nil {
		t.Fatalf("register low: %v", err)
	}
	// The high-priority registration does not fit: it must preempt low
	// (whose reservation releases immediately) rather than block.
	done := make(chan *Client)
	go func() {
		hi, err := p.Register("hi", ClientOptions{Priority: 1, MinShare: 1})
		if err != nil {
			t.Errorf("register hi: %v", err)
		}
		done <- hi
	}()
	select {
	case <-low.Preempted():
	case <-time.After(2 * time.Second):
		t.Fatal("low never preempted")
	}
	var hi *Client
	select {
	case hi = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("hi never admitted")
	}
	if got := reg.Snapshot().Counters[obs.MetricSchedPreemptions]; got != 1 {
		t.Fatalf("sched.preemptions = %d, want 1", got)
	}
	low.Close()
	hi.Close()
}

func TestEqualPriorityNeverPreempts(t *testing.T) {
	p := NewPool(1, nil)
	defer p.Close()
	a, err := p.Register("a", ClientOptions{Priority: 1, MinShare: 1})
	if err != nil {
		t.Fatalf("register a: %v", err)
	}
	admitted := make(chan struct{})
	go func() {
		b, err := p.Register("b", ClientOptions{Priority: 1, MinShare: 1})
		if err == nil {
			b.Close()
		}
		close(admitted)
	}()
	select {
	case <-a.Preempted():
		t.Fatal("equal-priority registration preempted a")
	case <-admitted:
		t.Fatal("b admitted without capacity")
	case <-time.After(50 * time.Millisecond):
	}
	a.Close()
	<-admitted
}

func TestConcurrentClientsDrainIndependently(t *testing.T) {
	p := NewPool(runtime.GOMAXPROCS(0), nil)
	defer p.Close()
	var wg sync.WaitGroup
	for k := 0; k < 6; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := p.Register("c", ClientOptions{})
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
			defer c.Close()
			var sum atomic.Int64
			for round := 0; round < 10; round++ {
				tasks := make([]func(), 16)
				for i := range tasks {
					i := i
					tasks[i] = func() { sum.Add(int64(i + 1)) }
				}
				c.Run(tasks)
			}
			if got, want := sum.Load(), int64(10*16*17/2); got != want {
				t.Errorf("client %d: sum = %d, want %d", k, got, want)
			}
		}(k)
	}
	wg.Wait()
}
