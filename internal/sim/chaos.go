// Chaos campaigns: seeded fault schedules and a stateful World that a
// controller drives block by block. Production migrations (paper §7.2) see
// *trains* of faults — out-of-band device rebuilds, flapping optics,
// traffic surges, and transiently failing drain RPCs — often several within
// one migration. A Schedule expresses such a train; a World replays it
// against the live topology so the control loop in internal/ctrl can
// observe, retry, and replan. World.Poll and World.fire are the package's
// one fault interpreter: the Executor replays plans fault-free.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// ErrTransient marks a fault that is expected to clear on retry — a drain
// RPC timeout, a busy controller. Executors should back off and retry
// rather than replan.
var ErrTransient = errors.New("sim: transient failure")

// ErrTelemetry marks a demand-telemetry observation that produced no data —
// the collector is down or timed out. Controllers should back off, retry,
// and eventually degrade to conservative planning rather than stall.
var ErrTelemetry = errors.New("sim: telemetry unavailable")

// FaultKind enumerates the injectable fault classes of §7.2.
type FaultKind int

const (
	// FaultSwitchDown takes a switch out of service out-of-band (device
	// rebuild, firmware upgrade) for the rest of the migration.
	FaultSwitchDown FaultKind = iota
	// FaultCircuitFlap deactivates a circuit for Steps actions, then
	// restores it (flapping optics).
	FaultCircuitFlap
	// FaultSurge multiplies a random fraction of demands (unexpected
	// traffic surge). With Steps == 0 the surge is permanent — the service
	// behavior changed for good (§7.2's storage backup-placement change).
	// With Steps > 0 it is transient, like FaultCircuitFlap: after Steps
	// further actions the affected rates are divided back to their
	// pre-surge values, bumping the epoch again on recovery.
	FaultSurge
	// FaultTransient makes the next Attempts block applications fail with
	// ErrTransient (drain RPC timeouts); the block itself is untouched.
	FaultTransient
	// FaultTelemetryStale freezes the demand telemetry feed: the next
	// Steps ObserveDemands calls return the snapshot taken when the fault
	// fired, however far the live demand has drifted since. Telemetry
	// faults never bump the epoch — the network itself is unchanged; only
	// the controller's view of it is degraded.
	FaultTelemetryStale
	// FaultTelemetryDrop makes the next Steps ObserveDemands calls fail
	// outright with ErrTelemetry (collector down, timeout).
	FaultTelemetryDrop
	// FaultTelemetryCorrupt makes the next Steps ObserveDemands calls
	// return garbage rates — NaN, negative, or wildly inflated values — the
	// way a half-written aggregation or a unit mix-up looks in production.
	// Consumers must sanity-check before trusting (see ctrl's watchdog).
	FaultTelemetryCorrupt
)

func (k FaultKind) String() string {
	switch k {
	case FaultSwitchDown:
		return "switch-down"
	case FaultCircuitFlap:
		return "circuit-flap"
	case FaultSurge:
		return "surge"
	case FaultTransient:
		return "transient"
	case FaultTelemetryStale:
		return "telemetry-stale"
	case FaultTelemetryDrop:
		return "telemetry-drop"
	case FaultTelemetryCorrupt:
		return "telemetry-corrupt"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one scheduled fault. Step counts executed actions: the fault
// fires once at least Step blocks have been applied.
type Fault struct {
	Step int
	Kind FaultKind

	Switch  topo.SwitchID // FaultSwitchDown
	Circuit topo.CircuitID
	// Steps is the recovery horizon of recoverable faults: for
	// FaultCircuitFlap, actions until the circuit comes back; for
	// FaultSurge, actions until the surged rates are divided back (0 =
	// permanent surge); for the telemetry kinds, the number of
	// ObserveDemands calls affected (default 1).
	Steps    int
	Surge    *demand.Surge // FaultSurge
	Attempts int           // FaultTransient: consecutive failures (default 1)
}

// Schedule is a fault train, ordered or not — firing order is by Step.
type Schedule []Fault

// ScheduleOptions parameterizes RandomSchedule.
type ScheduleOptions struct {
	Faults int // number of faults (default 3)

	// Telemetry widens the draw to the telemetry fault kinds (stale, drop,
	// corrupt). Off by default so existing seeded schedules — and the
	// deterministic campaigns replaying them — are byte-identical to before
	// the telemetry kinds existed.
	Telemetry bool
	// SurgeSteps, when > 0, makes drawn surges transient: surged rates
	// recover after 1..SurgeSteps actions. 0 keeps surges permanent.
	SurgeSteps int
}

// The shape of drawn faults. Seeded schedules depend on every one of them.
const (
	surgeFraction   = 0.05 // demands affected by a surge
	surgeMultiplier = 1.2  // surge rate multiplier
	maxAttempts     = 2    // max transient failures per fault
	flapSteps       = 2    // max actions until a flapped circuit recovers
	telemetrySteps  = 2    // max ObserveDemands calls a telemetry fault affects
)

// RandomSchedule draws a seeded fault train for the task. Switch outages
// and circuit flaps only target equipment the migration does not itself
// operate (an outage of operated equipment is a planning conflict, not
// chaos — see migration.Task.WithOutages), and outages also spare demand
// endpoints — severing a traffic source kills the workload rather than
// stressing the migration. When no eligible equipment exists the draw
// falls back to transients and surges.
func RandomSchedule(task *migration.Task, seed int64, opts ScheduleOptions) Schedule {
	if opts.Faults <= 0 {
		opts.Faults = 3
	}
	rng := rand.New(rand.NewSource(seed))

	operatedSw := make(map[topo.SwitchID]bool)
	operatedCk := make(map[topo.CircuitID]bool)
	for i := range task.Blocks {
		for _, s := range task.Blocks[i].Switches {
			operatedSw[s] = true
		}
		for _, c := range task.Blocks[i].Circuits {
			operatedCk[c] = true
		}
	}
	endpoint := make(map[topo.SwitchID]bool)
	for _, d := range task.Demands.Demands {
		endpoint[d.Src] = true
		endpoint[d.Dst] = true
	}
	var spareSw []topo.SwitchID
	for s := 0; s < task.Topo.NumSwitches(); s++ {
		id := topo.SwitchID(s)
		if !operatedSw[id] && !endpoint[id] && task.Topo.SwitchActive(id) {
			spareSw = append(spareSw, id)
		}
	}
	var spareCk []topo.CircuitID
	for c := 0; c < task.Topo.NumCircuits(); c++ {
		id := topo.CircuitID(c)
		if !operatedCk[id] && task.Topo.CircuitActive(id) {
			spareCk = append(spareCk, id)
		}
	}

	maxStep := task.NumActions()
	if maxStep < 1 {
		maxStep = 1
	}
	// The draw modulus stays 4 when Telemetry is off so pre-telemetry
	// seeded schedules reproduce byte-identically.
	kinds := 4
	if opts.Telemetry {
		kinds = 7
	}
	var sched Schedule
	for len(sched) < opts.Faults {
		step := 1 + rng.Intn(maxStep)
		switch rng.Intn(kinds) {
		case 0:
			if len(spareSw) == 0 {
				continue
			}
			sched = append(sched, Fault{Step: step, Kind: FaultSwitchDown,
				Switch: spareSw[rng.Intn(len(spareSw))]})
		case 1:
			if len(spareCk) == 0 {
				continue
			}
			sched = append(sched, Fault{Step: step, Kind: FaultCircuitFlap,
				Circuit: spareCk[rng.Intn(len(spareCk))],
				Steps:   1 + rng.Intn(flapSteps)})
		case 2:
			steps := 0
			if opts.SurgeSteps > 0 {
				steps = 1 + rng.Intn(opts.SurgeSteps)
			}
			sched = append(sched, Fault{Step: step, Kind: FaultSurge, Steps: steps,
				Surge: &demand.Surge{Fraction: surgeFraction, Multiplier: surgeMultiplier}})
		case 3:
			sched = append(sched, Fault{Step: step, Kind: FaultTransient,
				Attempts: 1 + rng.Intn(maxAttempts)})
		case 4:
			sched = append(sched, Fault{Step: step, Kind: FaultTelemetryStale,
				Steps: 1 + rng.Intn(telemetrySteps)})
		case 5:
			sched = append(sched, Fault{Step: step, Kind: FaultTelemetryDrop,
				Steps: 1 + rng.Intn(telemetrySteps)})
		default:
			sched = append(sched, Fault{Step: step, Kind: FaultTelemetryCorrupt,
				Steps: 1 + rng.Intn(telemetrySteps)})
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Step < sched[j].Step })
	return sched
}

// World is the live network a controller drives: the actual topology view,
// the actual demand level, and a fault schedule that fires as execution
// progresses. It is the ground truth the planner's model may drift from —
// the controller detects drift via Epoch and replans.
//
// World is not safe for concurrent use.
type World struct {
	task *migration.Task
	eval *routing.Evaluator
	view *topo.View
	rng  *rand.Rand

	schedule Schedule
	fired    []bool

	executed []int
	epoch    int

	downSwitches map[topo.SwitchID]bool
	flaps        map[topo.CircuitID]int // circuit → step at which it recovers

	demands        demand.Set
	demandsChanged bool

	// surgeUndos holds pending transient-surge recoveries: at the recorded
	// step the affected rates are divided back by the surge multiplier.
	surgeUndos []surgeUndo

	// growth is organic per-action demand growth applied silently on every
	// Apply — drift the controller can only see through telemetry, never
	// through the epoch counter.
	growth float64

	// Telemetry fault state: remaining affected ObserveDemands calls per
	// kind (drop > corrupt > stale priority when several overlap) and the
	// snapshot a stale feed keeps serving.
	telDrop     int
	telCorrupt  int
	telStale    int
	telSnapshot demand.Set

	transientLeft int
}

// surgeUndo records how to roll back one transient surge.
type surgeUndo struct {
	step       int // executed-action count at which the surge recovers
	multiplier float64
	hit        []int32 // affected demand indices
}

// NewWorld builds a world over the task's initial topology and demands.
func NewWorld(task *migration.Task, schedule Schedule, seed int64) *World {
	return &World{
		task:         task,
		eval:         routing.NewEvaluator(task.Topo),
		view:         task.Topo.NewView(),
		rng:          rand.New(rand.NewSource(seed)),
		schedule:     schedule,
		fired:        make([]bool, len(schedule)),
		downSwitches: make(map[topo.SwitchID]bool),
		flaps:        make(map[topo.CircuitID]int),
		demands:      task.Demands.Clone(),
	}
}

// Poll fires every due fault (Step ≤ executed actions) and processes flap
// recoveries, then returns the current epoch. The epoch increments on every
// out-of-band environment change — outage, flap, flap recovery, surge — so
// a controller that remembers the last epoch it planned against knows
// exactly when its plan's model went stale. Transient faults do not bump
// the epoch: they surface as Apply errors, not model drift.
func (w *World) Poll() int {
	step := len(w.executed)
	for i := range w.schedule {
		if w.fired[i] || w.schedule[i].Step > step {
			continue
		}
		w.fired[i] = true
		w.fire(&w.schedule[i])
	}
	for c, at := range w.flaps {
		if at <= step {
			delete(w.flaps, c)
			w.view.SetCircuitActive(c, true)
			w.epoch++
		}
	}
	// Transient-surge recoveries: divide the affected rates back. Like a
	// flap recovery this is an out-of-band environment change, so it bumps
	// the epoch.
	undos := w.surgeUndos[:0]
	for _, u := range w.surgeUndos {
		if u.step > step {
			undos = append(undos, u)
			continue
		}
		for _, di := range u.hit {
			w.demands.Demands[di].Rate /= u.multiplier
		}
		w.demandsChanged = true
		w.epoch++
	}
	w.surgeUndos = undos
	return w.epoch
}

func (w *World) fire(f *Fault) {
	switch f.Kind {
	case FaultSwitchDown:
		w.view.SetSwitchActive(f.Switch, false)
		w.downSwitches[f.Switch] = true
		w.epoch++
	case FaultCircuitFlap:
		w.view.SetCircuitActive(f.Circuit, false)
		steps := f.Steps
		if steps <= 0 {
			steps = 1
		}
		w.flaps[f.Circuit] = len(w.executed) + steps
		w.epoch++
	case FaultSurge:
		if f.Surge != nil {
			var hit []int32
			w.demands, hit = f.Surge.ApplyTracked(w.demands, w.rng)
			w.demandsChanged = true
			w.epoch++
			if f.Steps > 0 && len(hit) > 0 {
				w.surgeUndos = append(w.surgeUndos, surgeUndo{
					step:       len(w.executed) + f.Steps,
					multiplier: f.Surge.Multiplier,
					hit:        hit,
				})
			}
		}
	case FaultTransient:
		n := f.Attempts
		if n <= 0 {
			n = 1
		}
		w.transientLeft += n
	case FaultTelemetryStale:
		w.telStale += observationSteps(f)
		w.telSnapshot = w.demands.Clone()
	case FaultTelemetryDrop:
		w.telDrop += observationSteps(f)
	case FaultTelemetryCorrupt:
		w.telCorrupt += observationSteps(f)
	}
}

func observationSteps(f *Fault) int {
	if f.Steps <= 0 {
		return 1
	}
	return f.Steps
}

// Epoch returns the environment-change counter without firing faults.
func (w *World) Epoch() int { return w.epoch }

// SetDemandGrowth configures silent organic demand growth: after every
// applied block, every rate is multiplied by (1+perStep). Unlike a surge
// this never bumps the epoch — real traffic growth has no change event; a
// controller can only notice it by observing telemetry, which is exactly
// the drift-detection loop this exists to exercise.
func (w *World) SetDemandGrowth(perStep float64) { w.growth = perStep }

// Apply executes one block against the live network. Pending transient
// faults consume the call and return ErrTransient (wrapped); the block is
// not applied and may be retried.
func (w *World) Apply(blockID int) error {
	if w.transientLeft > 0 {
		w.transientLeft--
		return fmt.Errorf("%w: block %q operation timed out", ErrTransient, w.task.Blocks[blockID].Name)
	}
	w.task.Apply(w.view, blockID)
	w.executed = append(w.executed, blockID)
	if w.growth != 0 {
		for i := range w.demands.Demands {
			w.demands.Demands[i].Rate *= 1 + w.growth
		}
		w.demandsChanged = true
	}
	return nil
}

// Preapply fast-forwards the world through an already-executed prefix —
// journal recovery after a controller crash. Blocks are applied without
// transient faults (they were already retried in the previous life), but
// persistent faults due along the way still fire so outages and surges are
// reconstructed.
func (w *World) Preapply(executed []int) {
	for _, id := range executed {
		w.Poll()
		w.transientLeft = 0
		w.task.Apply(w.view, id)
		w.executed = append(w.executed, id)
	}
	w.Poll()
	w.transientLeft = 0
}

// Executed returns a copy of the applied block sequence.
func (w *World) Executed() []int {
	return append([]int(nil), w.executed...)
}

// DownSwitches lists switches taken down out-of-band, ascending.
func (w *World) DownSwitches() []topo.SwitchID {
	out := make([]topo.SwitchID, 0, len(w.downSwitches))
	for s := range w.downSwitches {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DownCircuits lists currently flapped (inactive) circuits, ascending.
func (w *World) DownCircuits() []topo.CircuitID {
	out := make([]topo.CircuitID, 0, len(w.flaps))
	for c := range w.flaps {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Demands returns a copy of the current (possibly surged) demand set.
func (w *World) Demands() demand.Set { return w.demands.Clone() }

// ObserveDemands is the demand-telemetry channel: what a controller reads
// when it asks "what is the network carrying right now". Normally it
// returns a copy of the live demands; pending telemetry faults degrade the
// answer instead — a dropped observation fails with ErrTelemetry, a corrupt
// one returns garbage rates (NaN, negative, or wildly inflated), and a
// stale one replays the snapshot taken when the feed froze. When faults of
// several kinds are pending, drop outranks corrupt outranks stale — the
// deadest feed wins. Each call consumes one pending affected observation.
func (w *World) ObserveDemands() (demand.Set, error) {
	switch {
	case w.telDrop > 0:
		w.telDrop--
		return demand.Set{}, fmt.Errorf("%w: demand collector timed out", ErrTelemetry)
	case w.telCorrupt > 0:
		w.telCorrupt--
		bad := w.demands.Clone()
		for i := range bad.Demands {
			switch w.rng.Intn(3) {
			case 0:
				bad.Demands[i].Rate = math.NaN()
			case 1:
				bad.Demands[i].Rate = -bad.Demands[i].Rate
			default:
				bad.Demands[i].Rate *= 1e9
			}
		}
		return bad, nil
	case w.telStale > 0:
		w.telStale--
		return w.telSnapshot.Clone(), nil
	}
	return w.demands.Clone(), nil
}

// DemandsChanged reports whether any surge has fired.
func (w *World) DemandsChanged() bool { return w.demandsChanged }

// Observe evaluates the live network at the current demand level and
// returns the max utilization and whether the state satisfies all
// constraints — the controller's boundary check.
func (w *World) Observe(theta float64, split routing.SplitMode) (float64, bool) {
	if theta <= 0 {
		theta = 0.75
	}
	res, viol := w.eval.Evaluate(w.view, &w.demands, routing.CheckOpts{Theta: theta, Split: split})
	return res.MaxUtil, viol.OK()
}
