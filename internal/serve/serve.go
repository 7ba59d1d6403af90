// Package serve turns the planner into planning-as-a-service: a
// long-lived daemon that operators submit migration requests to (the
// paper's §5 EDP-Lite production pipeline runs this way, not as a
// one-shot CLI). A request carries an NPD document plus planning options;
// the service answers with a job ID and plans in the background, admitted
// by the shared internal/sched pool with per-job priority and minimum
// share, and preempted through the planner's checkpoint/resume machinery.
//
// # Durability model
//
// Every job owns a write-ahead journal of KJ1 records (the same
// versioned, CRC32C-checksummed, fsync-per-append line envelope as the
// control journal) in the daemon's state directory. A record is written
// BEFORE the in-memory transition it describes takes effect, so the
// journal prefix on disk always bounds the daemon's promises: kill the
// process between any two records and the restarted daemon folds the
// prefix back into a consistent job — submitted requests replan,
// journaled final plans are served without replanning, terminal states
// stay terminal. Alongside the journal, the latest planner checkpoint is
// sealed as the CLI's checkpoint document (npd.BuildCheckpointDocument)
// into a sibling .ckpt file via atomic rename; it serves the anytime
// incumbent to clients, who may -resume or -audit it, and recovery never
// reads it — a torn or corrupt checkpoint file is ignored and the job
// replans from its journaled request, which the planners' determinism
// contract guarantees reproduces the same bytes.
//
// One fsync per back-to-back pair: transitions that always follow one
// another — ADMITTED then PLANNING, AUDITED then DONE — go to disk as
// their two records in one write and one fsync, and neither takes effect
// in memory or is published before that fsync returns. A crash inside
// the write leaves the prefixes two separate appends could leave, so a
// DONE job with no checkpoint legs costs five records and three fsyncs.
//
// Release at terminal: the moment a job turns DONE, CANCELLED or FAILED
// it gives back what only a running job needs — its journal handle, its
// context, and the request's NPD bytes (recovery reads those from the
// submitted record) — and keeps its status, so what a finished job costs
// the daemon does not depend on how many came before. Its audited plan
// is read back from the journal's audited record; only the manager's
// latest recentPlans documents stay in memory.
//
// # Recovery = deterministic replay
//
// The planners' checkpoints resume through an in-memory closure, so a
// restarted process cannot continue the literal search data structures.
// It does not need to: plans are byte-identical at every interruption
// pattern and admission order, so re-running the
// journaled request IS resuming — the final plan and certified gap are
// the ones the uninterrupted run would have produced. The journal makes
// that replay exactly-once at the job level (no job lost, none
// duplicated) and the sealed plan record makes the DONE state stable
// (a job that reached AUDITED never replans).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"klotski/internal/core"
	"klotski/internal/ctrl"
	"klotski/internal/obs"
)

// State is a job's position in the lifecycle
//
//	SUBMITTED → ADMITTED → PLANNING → AUDITED → DONE
//	                     ↘ CANCELLED / FAILED
//
// PLANNING may loop through checkpoint records (leg boundaries,
// preemptions, daemon restarts) before reaching a terminal state.
type State string

const (
	StateSubmitted State = "SUBMITTED"
	StateAdmitted  State = "ADMITTED"
	StatePlanning  State = "PLANNING"
	StateAudited   State = "AUDITED"
	StateDone      State = "DONE"
	StateCancelled State = "CANCELLED"
	StateFailed    State = "FAILED"
)

// Terminal reports whether the state is final: no further transitions,
// no further journal records.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Service errors, matchable via errors.Is.
var (
	// ErrInvalidRequest means a submission failed validation: a bad
	// field, or an NPD document that does not decode. Every other Submit
	// failure is the daemon's, not the request's.
	ErrInvalidRequest = errors.New("serve: invalid request")

	// ErrDraining means the daemon is shutting down and not accepting
	// new submissions.
	ErrDraining = errors.New("serve: draining, not accepting jobs")

	// ErrUnknownJob means no job with the given ID exists.
	ErrUnknownJob = errors.New("serve: unknown job")

	// ErrTerminal means the operation (cancel) does not apply to a job
	// that already reached a terminal state.
	ErrTerminal = errors.New("serve: job already terminal")

	// ErrNoPlan means the job has not produced its audited plan yet.
	ErrNoPlan = errors.New("serve: no plan yet")
)

// Request is one planning submission. NPD carries the network-plus-demand
// document verbatim (the same format the CLI reads); the remaining fields
// select the planner and its scheduling envelope.
type Request struct {
	// Name optionally labels the job for humans; defaults to the NPD
	// document's own name.
	Name string `json:"name,omitempty"`

	// NPD is the network-plus-demand document (required).
	NPD json.RawMessage `json:"npd"`

	// Planner selects the algorithm: "astar" (default) or "dp". The
	// service only runs planners that checkpoint and certify gaps.
	Planner string `json:"planner,omitempty"`

	// Theta / Alpha / MaxRun override the daemon's default planning
	// options when non-zero.
	Theta  float64 `json:"theta,omitempty"`
	Alpha  float64 `json:"alpha,omitempty"`
	MaxRun int     `json:"max_run,omitempty"`

	// Priority / MinShare parameterize the job's pool registration (see
	// sched.ClientOptions): higher-priority submissions preempt
	// lower-priority jobs, which checkpoint and re-admit.
	Priority int `json:"priority,omitempty"`
	MinShare int `json:"min_share,omitempty"`

	// DeadlineMS, when positive, bounds the job's total planning time
	// in milliseconds; an expired deadline fails the job.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// LegStates, when positive, overrides the daemon's per-leg state
	// budget: the planner checkpoints (journal record + sealed
	// envelope) every LegStates states created.
	LegStates int `json:"leg_states,omitempty"`
}

// validate rejects requests that could never plan, so the submitter gets
// a 400 instead of a job that fails asynchronously. The job's planning
// options, the daemon's defaults under the request's fields, must pass the
// planners' own rule, core.Options.Validate.
func (rq *Request) validate(defaults core.Options) error {
	if len(rq.NPD) == 0 {
		return errors.New("request has no npd document")
	}
	if !ctrl.Planner(rq.Planner).Resumable() {
		return fmt.Errorf("unknown planner %q (service runs \"astar\" or \"dp\")", rq.Planner)
	}
	opts := rq.options(defaults)
	if err := opts.Validate(); err != nil {
		return err
	}
	if rq.LegStates < 0 || rq.DeadlineMS < 0 {
		return errors.New("negative budget")
	}
	if rq.MinShare < 0 {
		return errors.New("negative share")
	}
	return nil
}

// options is the job's planning options: defaults, with each of Theta,
// Alpha and MaxRun that the request sets in place of the default's.
func (rq *Request) options(defaults core.Options) core.Options {
	opts := defaults
	if rq.Theta != 0 {
		opts.Theta = rq.Theta
	}
	if rq.Alpha != 0 {
		opts.Alpha = rq.Alpha
	}
	if rq.MaxRun != 0 {
		opts.MaxRunLength = rq.MaxRun
	}
	return opts
}

// Status is a point-in-time snapshot of a job, served by the status/list
// endpoints and streamed (one snapshot per transition or checkpoint) by
// the stream endpoint.
type Status struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  State  `json:"state"`
	Detail string `json:"detail,omitempty"`

	// Anytime certificate: the best incumbent cost seen so far, the
	// certified lower bound, and the relative gap between them (1 until
	// something is certified, 0 when the plan is provably optimal).
	Legs           int     `json:"legs"`
	Incumbent      float64 `json:"incumbent"`
	LowerBound     float64 `json:"lower_bound"`
	Gap            float64 `json:"gap"`
	PartialActions int     `json:"partial_actions"`

	// Final plan summary, set once the job reaches AUDITED.
	Actions int     `json:"actions,omitempty"`
	Cost    float64 `json:"cost,omitempty"`

	Recovered   bool `json:"recovered,omitempty"`
	Serial      bool `json:"serial,omitempty"`
	Preemptions int  `json:"preemptions,omitempty"`
}

// Config parameterizes a Manager.
type Config struct {
	// Dir is the daemon's state directory: one journal and one sealed
	// checkpoint file per job. Required; created if missing.
	Dir string

	// PoolWorkers sizes the shared planning pool (0 selects GOMAXPROCS;
	// Open refuses a negative size).
	PoolWorkers int

	// LegStates is the default per-leg state budget: how often planning
	// jobs checkpoint. 0 selects 50000; Open refuses a negative budget.
	LegStates int

	// AdmitWait bounds how long a job waits for pool admission before
	// degrading to serial planning instead of queueing indefinitely.
	// 0 selects 2s; negative waits forever.
	AdmitWait time.Duration

	// Options seeds every job's planning options (theta, alpha, …);
	// per-request fields override it. The budget fields (MaxStates,
	// Timeout) and Bound are managed per leg by the service and ignored
	// here. Open refuses options that core.Options.Validate rejects, so a
	// daemon never starts with defaults it cannot plan with.
	Options core.Options

	// Recorder receives the serve.* instruments (nil-safe).
	Recorder *obs.Recorder

	// Sleep, when non-nil, replaces time.Sleep for retry backoff —
	// tests inject a recording fake.
	Sleep func(time.Duration)

	// LegHook, when non-nil, runs before every planning leg of every
	// job — the fault-injection and pacing seam. Returning an error
	// wrapping sim.ErrTransient triggers the retry/backoff path; any
	// other error fails the job; sleeping paces background planning.
	LegHook func(jobID string, leg int) error
}

// A job retries a transient planning failure (sim.ErrTransient) at most
// maxRetries times, each after a jittered backoff (ctrl.Backoff) doubling
// from retryBackoff up to maxRetryBackoff.
const (
	maxRetries      = 4
	retryBackoff    = 50 * time.Millisecond
	maxRetryBackoff = 2 * time.Second
)

// withDefaults fills in the documented defaults of unset fields.
func (c Config) withDefaults() Config {
	if c.LegStates <= 0 {
		c.LegStates = 50000
	}
	if c.AdmitWait == 0 {
		c.AdmitWait = 2 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}
