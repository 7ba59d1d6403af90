package serve

import "encoding/json"

// record is one job-journal entry; a job's journal is a
// durable.Log[record]. State names the transition ("submitted",
// "admitted", "planning", "checkpoint", "audited", "done", "cancelled",
// "failed"); "checkpoint" is a planning-progress record, not a distinct
// lifecycle state — it folds back to PLANNING. The submitted
// record carries the full request so a restarted daemon can replan from
// the journal alone; the audited record carries the final plan document
// bytes so a job that reached AUDITED never replans.
type record struct {
	Seq    int    `json:"seq"`
	State  string `json:"state"`
	Detail string `json:"detail,omitempty"`

	// submitted
	Request json.RawMessage `json:"request,omitempty"`

	// admitted
	Serial bool `json:"serial,omitempty"`

	// checkpoint
	Leg            int     `json:"leg,omitempty"`
	Incumbent      float64 `json:"incumbent,omitempty"`
	LowerBound     float64 `json:"lower_bound,omitempty"`
	Gap            float64 `json:"gap,omitempty"`
	PartialActions int     `json:"partial_actions,omitempty"`

	// audited
	Plan    json.RawMessage `json:"plan,omitempty"`
	Cost    float64         `json:"cost,omitempty"`
	Actions int             `json:"actions,omitempty"`
}

// recordStates that map to lifecycle states (everything but "checkpoint").
const (
	recSubmitted  = "submitted"
	recAdmitted   = "admitted"
	recPlanning   = "planning"
	recCheckpoint = "checkpoint"
	recAudited    = "audited"
	recDone       = "done"
	recCancelled  = "cancelled"
	recFailed     = "failed"
)
