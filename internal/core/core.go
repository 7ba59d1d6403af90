// Package core implements the Klotski migration planners: the A* search
// planner (paper §4.4, Algorithm 2) and the DP-based planner (§4.3,
// Algorithm 1), both operating on the pruned operation-block search space
// with efficient satisfiability checking (§4.2).
//
// # State space
//
// A search state is (V, a): the compact topology representation V — the
// vector counting finished actions per action type — plus the type a of the
// last finished action. Blocks of one type are operated in canonical
// (insertion) order, so V fully determines which blocks are done and hence
// the intermediate topology; this is the ordering-agnostic representation
// of Definition 1 that lets satisfiability results be cached per V rather
// than per action sequence.
//
// # Cost model
//
// Plan cost follows Eq. 1 generalized by the §5 cost function
// f_cost(x) = 1 + α(x−1): an action of type a costs unit_a when it starts a
// new run (previous action had a different type) and α·unit_a when it
// extends the current run. With α = 0 and unit costs of 1 this is exactly
// "number of action-type changes + 1".
//
// # Heuristic
//
// The A* priority is f = g + h with h the cheapest conceivable completion:
// every remaining type must be visited at least once, except that the
// current run's type can be finished without starting a new run. This is
// the paper's Eq. 9 heuristic made tight (and consistent) in the corner
// case where the last action's type still has pending actions; see
// bound.RelaxCapped for the algebra.
//
// # Execution
//
// Each planner is one serial search on one goroutine, as in the paper's
// Algorithms 1 and 2: a plan owns a single check lane (view, evaluator,
// occupancy bitset), and a satisfiability check costs what differs from
// the previous check on that lane, and the post-planning audit replays the
// plan on the same goroutine. Concurrency lives above a plan — callers
// admitted to an internal/sched pool run whole plans side by side — never
// inside one (DESIGN.md, "In-plan parallel search: tried and not kept").
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"klotski/internal/audit"
	"klotski/internal/bound"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// Planning errors.
var (
	// ErrInfeasible means no safe action sequence exists under the given
	// constraints (or the initial/target state itself violates them).
	ErrInfeasible = errors.New("core: no feasible migration plan")

	// ErrBudget means the planner exceeded its state or time budget before
	// finding an optimal plan (rendered as a cross in the paper's figures).
	ErrBudget = errors.New("core: planning budget exceeded")

	// ErrUnsupported is returned by planners that cannot handle the task
	// (used by baselines for topology-changing migrations).
	ErrUnsupported = errors.New("core: migration type not supported by this planner")
)

// NoLast marks "no action finished yet" in the resume basis, sequence
// costs and run reconstruction.
const NoLast migration.ActionType = -1

// WorkersAdaptive is the lowest value Options.Workers accepts.
//
// Deprecated: Options.Workers is ignored; the audit replays on one lane.
const WorkersAdaptive = -1

// Options parameterizes a planning run. The zero value gives the paper's
// defaults: θ = 0.75, α = 0, A* heuristic and secondary priority on,
// satisfiability cache on, no funneling headroom, no space constraints.
type Options struct {
	// Theta is the maximum circuit utilization bound (Eq. 5). 0 means the
	// paper default of 0.75.
	Theta float64

	// Alpha is the within-run marginal cost of the generalized cost
	// function f_cost(x) = 1 + α(x−1) (§5), in [0, 1].
	Alpha float64

	// Split selects the traffic-splitting policy of the safety checker:
	// plain ECMP (default, the paper's model) or capacity-weighted WCMP,
	// modeling the temporary routing configurations of §7.1.
	Split routing.SplitMode

	// DisableCache turns off efficient satisfiability checking (the
	// "Klotski w/o ESC" ablation of Fig. 10): every state re-checks its
	// topology even when an equivalent state was already checked.
	DisableCache bool

	// DisableHeuristic reduces A* to uniform-cost search (the "Klotski
	// w/o A*" ablation of Fig. 10).
	DisableHeuristic bool

	// DisableSecondaryPriority turns off the finished-action-count
	// tiebreak among states with equal f (§4.4).
	DisableSecondaryPriority bool

	// FunnelFactor, when > 1, reserves transient headroom against traffic
	// funneling (§7.2): circuits parallel to the block being operated are
	// held to θ/FunnelFactor.
	FunnelFactor float64

	// MaxRunLength caps how many same-type actions execute as one parallel
	// run (a maintenance-window / affinity rule in the spirit of §7.2):
	// after MaxRunLength consecutive same-type actions the crews stop, the
	// network is observed — and therefore checked — and a new run begins
	// at full cost. 0 means unlimited (the paper's model).
	MaxRunLength int

	// SpaceBudget, when non-nil, caps the number of physically present
	// switches per datacenter during the transient (§7.2 space and power
	// constraints): old switches occupy space until drained, new switches
	// occupy space from the moment they are undrained. Missing DCs are
	// unconstrained.
	SpaceBudget map[int]int

	// Workers is ignored: the search and its audit are serial. Values below
	// WorkersAdaptive are still rejected.
	//
	// Deprecated: planning does the same work at every value.
	Workers int

	// MaxStates caps the number of states the planner may create. 0 means
	// the default of 4,000,000.
	MaxStates int

	// Timeout caps wall-clock planning time. 0 means no limit.
	Timeout time.Duration

	// Executed resumes planning from a partially executed migration
	// (replanning after demand shifts or failures, §7.1–7.2): the blocks
	// already operated, in the order they were operated. The search starts
	// from the state after them, with the last block's run in progress —
	// under MaxRunLength, with as many actions in its current chunk as the
	// executed run put there (RunsOf). A* and DP refuse blocks of one type
	// out of canonical order, which their plans never produce; the MRC and
	// Janus baselines accept any order. The post-planning audit replays the
	// same blocks (audit.Config.Executed).
	Executed []int

	// SkipAudit disables the independent post-planning audit: by default
	// every emitted plan is replayed step-by-step against an independent
	// verifier (internal/audit) before it is returned, and planning fails
	// with ErrAudit if any boundary state violates a constraint.
	// Benchmarks isolating raw search time opt out; production callers
	// should not.
	SkipAudit bool

	// AuditSerial is ignored: the audit has one engine, the serial replay.
	//
	// Deprecated: every audit is serial.
	AuditSerial bool

	// Evaluator optionally supplies a routing evaluator to reuse across
	// planning runs over the same topology. When nil the planner makes one
	// (routing.NewEvaluator) at its first routed check the lifted check does
	// not answer, and a plan whose lifted check answers every routed check
	// makes none. The static adjacency is kept per topology shape either
	// way, so what reusing an evaluator saves is its check scratch and the
	// up state and distance fields it carries over from earlier checks;
	// those follow the next view by content, so plans are byte-identical to
	// a fresh evaluator's. The post-planning audit never uses it: audits run
	// on a fresh fork, with no state carried over, by construction.
	Evaluator *routing.Evaluator

	// Recorder optionally streams planner events (states, checks, cache
	// hits/misses, check latency, spans) into an observability registry.
	// nil — the default — is the no-op recorder: every hook degrades to a
	// single branch, keeping the search hot path unaffected.
	Recorder *obs.Recorder

	// Bound optionally attaches a lower-bound engine (internal/bound):
	// infeasible boundary verdicts discovered during search are learned as
	// cuts, provably-dead states are skipped, and — once the engine has
	// been sealed by a completed run over the same problem — DP cells whose
	// bound exceeds the incumbent are pruned. Plans are byte-identical with
	// and without an engine; only the effort changes. The engine must have
	// been built for this task's shape (see NewBoundEngine); a mismatched
	// engine is ignored, as are configurations the cut model does not cover
	// (funneling, run caps). The same engine may be reused across runs and
	// replans — that reuse is where the pruning power comes from — but it
	// is not safe for concurrent planner runs.
	Bound *bound.Engine
}

// Validate rejects option combinations that would silently produce
// nonsense: utilization bounds outside (0, 1], α outside [0, 1], negative
// budgets or run caps, and funneling factors below 1. Every planner and
// audit applies it; a caller that holds options before planning (a
// daemon's defaults, a request) applies it to refuse them up front.
func (o *Options) Validate() error {
	if o.Theta < 0 || o.Theta > 1 {
		return fmt.Errorf("core: Theta %v outside (0, 1] (0 selects the default 0.75)", o.Theta)
	}
	if o.Alpha < 0 || o.Alpha > 1 {
		return fmt.Errorf("core: Alpha %v outside [0, 1]", o.Alpha)
	}
	if o.MaxStates < 0 {
		return fmt.Errorf("core: negative MaxStates %d", o.MaxStates)
	}
	if o.MaxRunLength < 0 {
		return fmt.Errorf("core: negative MaxRunLength %d", o.MaxRunLength)
	}
	if o.FunnelFactor != 0 && o.FunnelFactor < 1 {
		return fmt.Errorf("core: FunnelFactor %v below 1 would loosen the bound", o.FunnelFactor)
	}
	if o.Workers < WorkersAdaptive {
		return fmt.Errorf("core: Workers %d below %d", o.Workers, WorkersAdaptive)
	}
	return nil
}

func (o *Options) theta() float64 {
	if o.Theta <= 0 {
		return 0.75
	}
	return o.Theta
}

func (o *Options) maxStates() int {
	if o.MaxStates <= 0 {
		return 4_000_000
	}
	return o.MaxStates
}

// Run is a maximal subsequence of consecutive same-type actions in a plan.
// All blocks of a run are operated in parallel by field crews (§3).
type Run struct {
	Type   migration.ActionType
	Blocks []int // block IDs, in execution order
}

// Metrics reports planner effort.
type Metrics struct {
	StatesCreated int           // distinct (V, last) states materialized
	StatesPopped  int           // states expanded from the queue / DP table
	Checks        int           // satisfiability checks actually executed
	CacheHits     int           // checks answered from the equivalent-state cache
	CacheMisses   int           // checks that missed the cache
	PlanningTime  time.Duration // wall clock

	// Checks the lane answered before routing (lane.go): a switch over its
	// port budget, or a capacity cut whose crossing demand exceeds θ × its
	// up capacity. The evaluator is called for the remaining checks only.
	PortRejects int
	CutRejects  int

	// Routed checks the lifted check answered from the quotient of the
	// fabric, and those it was not sure of and left to the full evaluator
	// (lift.go); and the distance fields it repaired from the check before
	// instead of traversing the quotient (routing.Quotient.FieldRepairs).
	LiftedChecks       int
	LiftedFallbacks    int
	LiftedFieldRepairs int

	// Always zero: bench/ still reads the two (ROADMAP item 5(g) drops them).
	GroupInvalidations int
	GroupsReused       int

	// Lower-bound engine counters (zero unless Options.Bound is attached).
	BoundCutsLearned  int // new infeasibility cuts learned during this run
	BoundCutHits      int // queries answered from the cut set (dead/dominated)
	BoundStatesPruned int // search states skipped as provably dead or dominated

	// Anytime optimality certificate. IncumbentCost is the cost of the
	// best complete plan found (0 with OptimalityGap 1 when none yet);
	// LowerBound is a certified lower bound on the optimal cost;
	// OptimalityGap is (incumbent − bound)/incumbent, so 0 means the
	// incumbent is provably optimal. Completed A*/DP runs always certify
	// gap 0; interrupted checkpoints carry the gap of the partial search.
	// Baseline planners (MRC, Janus) do not certify: they report a zero
	// certificate (all three fields 0).
	IncumbentCost float64
	LowerBound    float64
	OptimalityGap float64
}

// Plan is an ordered, safe, minimum-cost migration plan.
type Plan struct {
	Task     *migration.Task
	Sequence []int // block IDs in execution order
	Runs     []Run
	Cost     float64
	Metrics  Metrics

	// Audit is the report of the independent post-planning audit (nil when
	// Options.SkipAudit was set). A plan only reaches the caller with
	// Audit.Passed == true; the control loop refuses plans without it.
	Audit *audit.Report
}

// String renders the plan as one line per run.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %s: cost %g, %d actions in %d runs\n",
		p.Task.Name, p.Cost, len(p.Sequence), len(p.Runs))
	for i, r := range p.Runs {
		fmt.Fprintf(&b, "  run %d: %s × %d (%s)\n",
			i+1, p.Task.Types[r.Type].Name, len(r.Blocks), blockNames(p.Task, r.Blocks, 4))
	}
	return b.String()
}

func blockNames(t *migration.Task, ids []int, max int) string {
	var names []string
	for i, id := range ids {
		if i == max {
			names = append(names, fmt.Sprintf("… %d more", len(ids)-max))
			break
		}
		names = append(names, t.Blocks[id].Name)
	}
	return strings.Join(names, ", ")
}

// RunsOf groups a block sequence into runs, splitting same-type runs every
// maxRun actions when maxRun > 0 (Options.MaxRunLength semantics).
func RunsOf(t *migration.Task, seq []int, maxRun int) []Run {
	var runs []Run
	for _, id := range seq {
		ty := t.Blocks[id].Type
		startNew := len(runs) == 0 || runs[len(runs)-1].Type != ty
		if !startNew && maxRun > 0 && len(runs[len(runs)-1].Blocks) >= maxRun {
			startNew = true
		}
		if startNew {
			runs = append(runs, Run{Type: ty})
		}
		last := &runs[len(runs)-1]
		last.Blocks = append(last.Blocks, id)
	}
	return runs
}

// SequenceCost computes the generalized cost of executing the given block
// sequence, starting from a run of type initialLast (NoLast for a fresh
// start). It is the reference implementation of Eq. 1 + §5 used by tests
// and by baseline planners.
func SequenceCost(t *migration.Task, seq []int, alpha float64, initialLast migration.ActionType) float64 {
	return SequenceCostCapped(t, seq, alpha, initialLast, 0, 0)
}

// SequenceCostCapped is SequenceCost under Options.MaxRunLength semantics:
// runs are force-split every maxRun same-type actions, each split paying a
// fresh unit cost. initialRun is the length of the in-progress run at the
// start (relevant when resuming mid-run).
func SequenceCostCapped(t *migration.Task, seq []int, alpha float64, initialLast migration.ActionType, maxRun, initialRun int) float64 {
	cost := 0.0
	last := initialLast
	tail := initialRun
	for _, id := range seq {
		ty := t.Blocks[id].Type
		unit := unitCost(t, ty)
		switch {
		case ty != last:
			cost += unit
			tail = 1
		case maxRun > 0 && tail >= maxRun:
			cost += unit
			tail = 1
		default:
			cost += alpha * unit
			tail++
		}
		last = ty
	}
	return cost
}

// NewBoundEngine builds a lower-bound engine sized to the task's shape
// (per-type totals, unit costs, α), ready to attach via Options.Bound.
// The engine accumulates infeasibility cuts across every run it is
// attached to — including drift replans, where structurally-valid cuts
// survive — so reusing one engine per task is what makes it effective.
func NewBoundEngine(task *migration.Task, opts Options) *bound.Engine {
	n := task.NumTypes()
	totals := make([]uint16, n)
	units := make([]float64, n)
	for i, c := range task.Counts() {
		if c > 0xFFFF {
			c = 0xFFFF // out of planner range anyway; Matches will reject
		}
		totals[i] = uint16(c)
		units[i] = unitCost(task, migration.ActionType(i))
	}
	return bound.New(totals, units, opts.Alpha)
}

// CompletionLowerBound is an admissible lower bound on the cost of any
// feasible completion of a partially executed migration: counts[i]
// actions of type i are done, the last executed action had type last
// (NoLast for none), runs are capped at maxRun (0 = uncapped). It is the
// pure counting relaxation of the planners' heuristic — independent of
// demands and topology state, so it remains a valid bound on the optimal
// cost of ANY replan of the same remaining work, even after drift or
// outages. The in-progress run is assumed at its weakest (full tail)
// under a run cap, keeping the bound admissible without tail knowledge.
func CompletionLowerBound(t *migration.Task, counts []int, last migration.ActionType, alpha float64, maxRun int) float64 {
	n := t.NumTypes()
	units := make([]float64, n)
	totals := make([]uint16, n)
	done := make([]uint16, n)
	for i, c := range t.Counts() {
		units[i] = unitCost(t, migration.ActionType(i))
		totals[i] = uint16(c)
		if i < len(counts) {
			done[i] = uint16(min(max(counts[i], 0), c))
		}
	}
	return bound.RelaxCapped(units, totals, done, alpha, int(last), maxRun, maxRun)
}

// CountsOf counts the blocks of seq per action type: the compact vector
// of the state after a canonical seq.
func CountsOf(t *migration.Task, seq []int) []int {
	counts := make([]int, t.NumTypes())
	for _, id := range seq {
		counts[t.Blocks[id].Type]++
	}
	return counts
}

// CheckState verifies the single network state given by per-type progress
// counts (how many blocks of each type have been executed, in canonical
// order) against the demand, port, and space constraints. opts.Executed is
// not consulted.
func CheckState(task *migration.Task, counts []int, opts Options) error {
	sp, err := newSpaceAt(task, opts, counts, NoLast)
	if err != nil {
		return err
	}
	idx, _ := sp.intern(sp.initial)
	if !sp.feasible(idx, NoLast) {
		return planErrf(ErrInfeasible, "state %v violates constraints", counts)
	}
	return nil
}

// ValidateSequence checks that a block sequence is a permutation of the
// task's blocks not yet executed (given the executed blocks, which may be
// nil) and that blocks of each type appear in canonical order, the executed
// ones included: the audit's structural check (audit.CheckSequence). The
// execution simulator relies on it.
func ValidateSequence(t *migration.Task, seq []int, executed []int) error {
	return audit.CheckSequence(t, seq, audit.Config{Executed: executed})
}

// unitCost returns the effective unit cost of an action type.
func unitCost(t *migration.Task, a migration.ActionType) float64 {
	u := t.Types[a].UnitCost
	if u == 0 {
		return 1
	}
	return u
}

// funnelCircuits lists the up circuits that survive next to the circuits a
// block takes down — the circuits onto which traffic funnels while the
// block's elements drain asynchronously (§2.2). For an undrain block the
// set is empty: adding capacity does not funnel traffic. The lane asks once
// per block (space.funnelOf).
func funnelCircuits(t *migration.Task, blockID int) []topo.CircuitID {
	b := &t.Blocks[blockID]
	if t.Types[b.Type].Op != migration.Drain {
		return nil
	}
	affected := make(map[topo.SwitchID]bool)
	operatedCk := make(map[topo.CircuitID]bool)
	for _, s := range b.Switches {
		for _, c := range t.Topo.Switch(s).Circuits() {
			operatedCk[c] = true
			affected[t.Topo.Circuit(c).Other(s)] = true
		}
	}
	for _, c := range b.Circuits {
		operatedCk[c] = true
		ck := t.Topo.Circuit(c)
		affected[ck.A] = true
		affected[ck.B] = true
	}
	var out []topo.CircuitID
	for s := range affected {
		for _, c := range t.Topo.Switch(s).Circuits() {
			if !operatedCk[c] {
				out = append(out, c)
			}
		}
	}
	return out
}
