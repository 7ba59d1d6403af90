package ctrl

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"klotski/internal/core"
	"klotski/internal/sim"
)

// TestRunAdaptiveWorkersMatchesSerial pins the control loop's
// replayability contract across Workers settings: with
// Workers=WorkersAdaptive every plan and replan is audited on GOMAXPROCS
// replay lanes (pinned to 4 here) instead of one, and the loop must execute
// the exact action sequence of a Workers=0 run, fault for fault, because the
// setting never reaches plan content.
func TestRunAdaptiveWorkersMatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	for _, seed := range []int64{3, 11} {
		run := func(workers int) (*Outcome, error) {
			task, _ := loopTask(t)
			schedule := sim.RandomSchedule(task, seed, sim.ScheduleOptions{Faults: 3})
			world := sim.NewWorld(task, schedule, seed)
			opts := Options{Sleep: noSleep, Seed: seed}
			opts.Config.Options.Workers = workers
			return Run(context.Background(), task, world, opts)
		}
		serial, errS := run(0)
		adaptive, errA := run(core.WorkersAdaptive)
		if errString(errS) != errString(errA) {
			t.Fatalf("seed %d: errors differ: %v vs %v", seed, errS, errA)
		}
		if errS != nil {
			continue
		}
		if !reflect.DeepEqual(serial, adaptive) {
			t.Fatalf("seed %d: outcomes differ:\nserial:   %+v\nadaptive: %+v",
				seed, serial, adaptive)
		}
	}
}
