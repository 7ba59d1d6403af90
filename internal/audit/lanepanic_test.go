package audit

import (
	"fmt"
	"testing"

	"klotski/internal/sched"
)

// TestLanePanicReachesVerify makes lanes of the lane engine panic and holds
// Verify to raising the lowest panicking lane's panic on its own goroutine,
// where the caller's recover sees it: on goroutines of the engine's own
// (no Runner) and on the workers of a shared pool (Runner = Client.Run), the
// two places a lane runs where no frame of the caller encloses it. At the
// parent of this test either killed the process.
func TestLanePanicReachesVerify(t *testing.T) {
	pool := sched.NewPool(2, nil)
	defer pool.Close()
	client, err := pool.Register("audit", sched.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	task := bridgeTask(t, 2, 2, 100, 100, 150)
	seq := safeSeq(task) // three boundaries: a lane each at Workers 3
	t.Cleanup(func() { SetLaneHook(nil) })
	for _, c := range []struct {
		name   string
		runner func([]func())
	}{{"spawned lanes", nil}, {"pool lanes", client.Run}} {
		t.Run(c.name, func(t *testing.T) {
			ran := make([]bool, 3)
			SetLaneHook(func(lane int) {
				ran[lane] = true
				if lane > 0 {
					panic(fmt.Sprintf("lane %d poisoned", lane))
				}
			})
			var got any
			func() {
				defer func() { got = recover() }()
				Verify(task, seq, Config{Mode: ModeIncremental, Workers: 3, Runner: c.runner})
			}()
			lp, ok := got.(*LanePanic)
			if !ok {
				t.Fatalf("Verify raised %v (%T), want the lanes' panic as a *LanePanic", got, got)
			}
			if lp.Lane != 1 || lp.Value != "lane 1 poisoned" || len(lp.Stack) == 0 {
				t.Fatalf("Verify raised lane %d's %v with %d stack bytes, want lane 1's, with its stack", lp.Lane, lp.Value, len(lp.Stack))
			}
			if !ran[0] || !ran[1] || !ran[2] {
				t.Fatalf("lanes run: %v, want all three", ran)
			}

			// The engine is left fit for the next audit.
			SetLaneHook(nil)
			rep, err := Verify(task, seq, Config{Mode: ModeIncremental, Workers: 3, Runner: c.runner})
			if err != nil || !rep.Passed {
				t.Fatalf("audit after the panic: %v, %v", rep, err)
			}
		})
	}
}
