package ctrl

import (
	"context"
	"reflect"
	"testing"

	"klotski/internal/core"
	"klotski/internal/sim"
)

// TestRunAdaptiveWorkersMatchesSerial pins the control loop's
// replayability contract across Workers settings: the deprecated field is
// ignored, so a run at Workers=WorkersAdaptive must execute the exact action
// sequence of a Workers=0 run, fault for fault. It goes with the field.
func TestRunAdaptiveWorkersMatchesSerial(t *testing.T) {
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
