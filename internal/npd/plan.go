package npd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"klotski/internal/audit"
	"klotski/internal/core"
	"klotski/internal/durable"
	"klotski/internal/migration"
	"klotski/internal/routing"
)

// PlanFormat tags a sealed plan document, a checkpoint included, so that a
// sealed file of another kind is refused by name instead of misparsed.
const PlanFormat = "klotski/plan"

// PlanDocument is the serialized output of the EDP-Lite pipeline: an
// ordered list of topology phases, one per migration run (paper §5:
// "Klotski returns an ordered list of topology phases. Each phase
// corresponds to one migration step"). A document says where it starts:
// Executed names the blocks operated before its first phase, none for a
// fresh plan. A checkpoint is a plan document of the safe partial sequence
// an interrupted search reached, with the search under Checkpoint.
type PlanDocument struct {
	Version    int         `json:"version"`
	Task       string      `json:"task"`
	Cost       float64     `json:"cost"`
	Theta      float64     `json:"theta"`
	Alpha      float64     `json:"alpha,omitempty"`
	Actions    int         `json:"actions"`
	Executed   []string    `json:"executed,omitempty"`
	Phases     []Phase     `json:"phases"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// Checkpoint is what a checkpoint document adds to a plan document: the
// planner that was interrupted, why, and its anytime certificate and
// effort at the interruption.
type Checkpoint struct {
	Planner        string  `json:"planner"`
	Reason         string  `json:"reason"`
	Incumbent      float64 `json:"incumbent"`
	LowerBound     float64 `json:"lowerBound"`
	Gap            float64 `json:"gap"`
	StatesCreated  int     `json:"statesCreated"`
	StatesExpanded int     `json:"statesExpanded"`
}

// Phase is the network state after one migration run completes.
type Phase struct {
	Index      int      `json:"index"`
	ActionType string   `json:"actionType"`
	Op         string   `json:"op"`
	Blocks     []string `json:"blocks"`
	SwitchOps  int      `json:"switchOps"`

	// Snapshot of the network after the run.
	ActiveSwitches int     `json:"activeSwitches"`
	UpCircuits     int     `json:"upCircuits"`
	CapacityTbps   float64 `json:"capacityTbps"`
	MaxUtilization float64 `json:"maxUtilization"`
}

// BuildPlanDocument converts a plan into its phase document: the network
// snapshot after every run.
func BuildPlanDocument(task *migration.Task, plan *core.Plan, opts core.Options) (*PlanDocument, error) {
	return BuildPlanDocumentFrom(task, nil, plan, opts)
}

// BuildPlanDocumentFrom builds the phase document for a plan that resumes a
// partially executed migration: executed lists the block IDs already
// operated, which are applied before the first phase snapshot.
//
// The document routes nothing itself. Every run ends in a state the plan's
// audit routed (a run boundary or the final state), and a phase's
// maxUtilization is that audit step's PlacedMaxUtil, routed under
// opts.Split. The steps come from plan.Audit when it covers this document
// (see reportCovers), else from a fresh audit of the plan against task.
func BuildPlanDocumentFrom(task *migration.Task, executed []int, plan *core.Plan, opts core.Options) (*PlanDocument, error) {
	utils, err := runEndUtils(task, executed, plan, opts)
	if err != nil {
		return nil, err
	}
	doc := newDocument(task, executed, plan.Runs, utils, opts)
	doc.Cost = plan.Cost
	return doc, nil
}

// BuildCheckpointDocument renders an interrupted search's checkpoint as a
// plan document: its safe partial sequence (core.Checkpoint.SafePartial) as
// phases, one per run, after the blocks the search started from, with the
// planner, the reason it stopped and its certificate under "checkpoint".
// Its phases' maxUtilization is 0: the writer routes nothing, and -audit
// routes every state. Executing its actions and pausing leaves a safe
// state, from which resuming after them continues.
func BuildCheckpointDocument(cp *core.Checkpoint, reason error) *PlanDocument {
	_, runs := cp.SafePartial()
	doc := newDocument(cp.Task(), cp.Executed(), runs, nil, cp.Options())
	inc, lb, gap := cp.Gap()
	doc.Checkpoint = &Checkpoint{
		Planner:        cp.Planner,
		Reason:         fmt.Sprint(reason),
		Incumbent:      inc,
		LowerBound:     lb,
		Gap:            gap,
		StatesCreated:  cp.Metrics.StatesCreated,
		StatesExpanded: cp.Metrics.StatesPopped,
	}
	return doc
}

// newDocument renders runs, operated after the executed blocks, as phases:
// the network snapshot after every run, with utils[i] (none when nil) as
// run i's maxUtilization.
func newDocument(task *migration.Task, executed []int, runs []core.Run, utils []float64, opts core.Options) *PlanDocument {
	theta := opts.Theta
	if theta <= 0 {
		theta = 0.75
	}
	doc := &PlanDocument{Version: Version, Task: task.Name, Theta: theta, Alpha: opts.Alpha}
	view := task.Topo.NewView()
	for _, id := range executed {
		task.Apply(view, id)
		doc.Executed = append(doc.Executed, task.Blocks[id].Name)
	}
	for i, run := range runs {
		info := task.Types[run.Type]
		ph := Phase{Index: i + 1, ActionType: info.Name, Op: info.Op.String()}
		for _, id := range run.Blocks {
			task.Apply(view, id)
			ph.Blocks = append(ph.Blocks, task.Blocks[id].Name)
			ph.SwitchOps += len(task.Blocks[id].Switches)
		}
		ph.ActiveSwitches, ph.UpCircuits, ph.CapacityTbps = view.Up()
		if utils != nil {
			ph.MaxUtilization = utils[i]
		}
		doc.Actions += len(run.Blocks)
		doc.Phases = append(doc.Phases, ph)
	}
	return doc
}

// Sequence maps the document's block names onto task's block IDs: executed
// are the blocks operated before its first phase, seq the phases' blocks in
// plan order. A name task does not have is an error.
func (p *PlanDocument) Sequence(task *migration.Task) (executed, seq []int, err error) {
	byName := make(map[string]int, len(task.Blocks))
	for i := range task.Blocks {
		byName[task.Blocks[i].Name] = i
	}
	names := slices.Clone(p.Executed)
	for _, ph := range p.Phases {
		names = append(names, ph.Blocks...)
	}
	ids := make([]int, len(names))
	for i, name := range names {
		id, ok := byName[name]
		if !ok {
			return nil, nil, fmt.Errorf("npd: plan block %q not found in scenario %q — was the NPD document edited?", name, task.Name)
		}
		ids[i] = id
	}
	n := len(p.Executed)
	return ids[:n:n], ids[n:], nil
}

// runEndUtils returns, per run of plan, the PlacedMaxUtil of the audit step
// at the state the run ends in. When plan.Audit does not cover the document
// it audits the plan again, outside the plan's recorder; a plan that fails
// that audit has no document.
//
// The re-audit replays from the exact executed blocks in free order, which
// checks every type change and so every run end, whatever order the plan
// operates its blocks in. Only a run split under MaxRunLength (two runs of
// one type in a row) needs the canonical replay, the one that checks forced
// splits; the planners that split runs keep canonical order.
func runEndUtils(task *migration.Task, executed []int, plan *core.Plan, opts core.Options) ([]float64, error) {
	if reportCovers(task, executed, plan, opts.Split) {
		if utils := placedUtils(plan, plan.Audit); utils != nil {
			return utils, nil
		}
	}
	freeOrder := true
	for i := 1; i < len(plan.Runs); i++ {
		if plan.Runs[i].Type == plan.Runs[i-1].Type {
			freeOrder = false
		}
	}
	opts.Executed = executed
	opts.Recorder = nil
	rep, err := core.AuditSequence(task, plan.Sequence, opts, freeOrder)
	if err != nil {
		return nil, fmt.Errorf("npd: auditing the plan: %w", err)
	}
	if !rep.Passed {
		return nil, fmt.Errorf("npd: plan fails its audit at step %d: %s", rep.FailStep, rep.Reason)
	}
	utils := placedUtils(plan, rep)
	if utils == nil {
		return nil, errors.New("npd: a run of the plan does not end at an audited state")
	}
	return utils, nil
}

// reportCovers reports whether plan.Audit routed the states this document
// renders: it passed, it audited plan.Task, which shares task's topology and
// demand set (a forecast copy does), it routed under split, and it started
// from the executed blocks.
func reportCovers(task *migration.Task, executed []int, plan *core.Plan, split routing.SplitMode) bool {
	rep, pt := plan.Audit, plan.Task
	if rep == nil || !rep.Passed || rep.Split != split || pt == nil || pt.Topo != task.Topo ||
		len(pt.Demands.Demands) != len(task.Demands.Demands) ||
		(len(task.Demands.Demands) > 0 && &pt.Demands.Demands[0] != &task.Demands.Demands[0]) {
		return false
	}
	// Applying the same blocks in any order leaves the same state.
	start, done := slices.Clone(rep.Start), slices.Clone(executed)
	slices.Sort(start)
	slices.Sort(done)
	return slices.Equal(start, done)
}

// placedUtils reads, for each run of plan, the PlacedMaxUtil of rep's step at
// the sequence position where the run ends. It returns nil when a run ends
// where rep has no step for this sequence.
func placedUtils(plan *core.Plan, rep *audit.Report) []float64 {
	seq := plan.Sequence
	utils := make([]float64, len(plan.Runs))
	pos, k := 0, 0
	for i, run := range plan.Runs {
		pos += len(run.Blocks)
		next := -1
		if pos < len(seq) {
			next = seq[pos]
		}
		for k < len(rep.Steps) && rep.Steps[k].Index < pos {
			k++
		}
		if k == len(rep.Steps) || rep.Steps[k].Index != pos || rep.Steps[k].Block != next {
			return nil
		}
		utils[i] = rep.Steps[k].PlacedMaxUtil
	}
	return utils
}

// EncodePlan writes a plan document as indented JSON.
func (p *PlanDocument) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("npd: encode plan: %w", err)
	}
	return nil
}

// ReadPlan reads a plan document, a checkpoint included, from data: a
// sealed envelope, whose tag, version and checksum it verifies, or bare
// plan JSON.
func ReadPlan(data []byte) (*PlanDocument, error) {
	if durable.IsSealed(data) {
		payload, err := durable.OpenSealed(PlanFormat, data)
		if err != nil {
			return nil, err
		}
		data = payload
	}
	return DecodePlan(bytes.NewReader(data))
}

// DecodePlan reads a plan document from JSON.
func DecodePlan(r io.Reader) (*PlanDocument, error) {
	var p PlanDocument
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("npd: decode plan: %w", err)
	}
	if p.Version != Version {
		return nil, fmt.Errorf("npd: unsupported plan version %d", p.Version)
	}
	return &p, nil
}
