// Package ctrl closes the loop the planner opens: it executes an audited
// migration plan against a live (simulated) network, observing the real
// topology and demand after every action, retrying transient operation
// failures with capped exponential backoff, and replanning the remainder
// when the environment drifts out from under the plan — the operational
// practices of paper §7.2 ("failures during operation duration",
// "simultaneous operations", "unexpected traffic surge") as an executable
// controller rather than prose.
//
// Every action is journaled to a crash-safe write-ahead log before and
// after it runs, so a controller crash loses at most the in-flight action
// — and drain/undrain operations are idempotent, so replaying that action
// on restart is harmless.
package ctrl

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"klotski/internal/durable"
)

// ErrJournalExists means NewJournal found a journal already at the path.
// Overwriting a prior campaign's log silently destroys the only record of
// what was executed; callers must opt in explicitly via
// NewJournalOverwrite (or resume with OpenJournal).
var ErrJournalExists = errors.New("ctrl: journal already exists")

// Entry is one journal record. Op "begin" is written before an action is
// issued to the network, "done" after it is observed complete; "replan"
// marks a replanning decision so post-mortems can see why the executed
// order diverged from the original plan.
type Entry struct {
	Seq     int    `json:"seq"`               // index in the overall executed order
	Op      string `json:"op"`                // "begin" | "done" | "replan"
	Block   int    `json:"block"`             // block ID (begin/done)
	Name    string `json:"name,omitempty"`    // block name, for human readers
	Attempt int    `json:"attempt,omitempty"` // retry attempt that succeeded
	Detail  string `json:"detail,omitempty"`  // replan reason
}

// Journal is a write-ahead log of executed actions: a durable.Log of
// Entry records (one KJ1 line each, fsynced per append) and the entries
// it holds. A damaged final record is the signature of a crash mid-append
// (torn tail) and is dropped on read; a damaged record anywhere else fails
// with durable.ErrCorrupt.
type Journal struct {
	log     *durable.Log[Entry]
	entries []Entry
}

// NewJournal creates a journal at path, refusing with ErrJournalExists if
// one (or any file) is already there — a prior campaign's log is evidence
// and must not be clobbered silently. Use NewJournalOverwrite to replace
// it deliberately, or OpenJournal to resume it.
func NewJournal(path string) (*Journal, error) {
	log, err := durable.Create[Entry](path)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("%w at %s: pass an explicit overwrite (NewJournalOverwrite) to replace it, or OpenJournal to resume it", ErrJournalExists, path)
		}
		return nil, fmt.Errorf("ctrl: creating journal: %w", err)
	}
	return &Journal{log: log}, nil
}

// NewJournalOverwrite creates a journal at path, removing any existing
// file first — the explicit opt-in NewJournal refuses to perform silently.
func NewJournalOverwrite(path string) (*Journal, error) {
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("ctrl: replacing journal: %w", err)
	}
	return NewJournal(path)
}

// OpenJournal opens an existing journal for crash recovery: prior entries
// are replayed (a torn final line is dropped and truncated away) and new
// appends go to the end. A missing file is created empty.
func OpenJournal(path string) (*Journal, error) {
	log, entries, err := durable.Open[Entry](path)
	if errors.Is(err, fs.ErrNotExist) {
		return NewJournal(path)
	}
	if err != nil {
		return nil, err
	}
	return &Journal{log: log, entries: entries}, nil
}

// ReadJournal reads a journal file without opening it for appends. A
// malformed or checksum-failing final line is tolerated (crash
// mid-append); damage anywhere else fails with an error wrapping
// durable.ErrCorrupt.
func ReadJournal(path string) ([]Entry, error) {
	return durable.Read[Entry](path)
}

// Append writes one entry and syncs it to stable storage before returning.
func (j *Journal) Append(e Entry) error {
	if err := j.log.Append(e); err != nil {
		return err
	}
	j.entries = append(j.entries, e)
	return nil
}

// Entries returns a copy of the journal's records.
func (j *Journal) Entries() []Entry {
	return append([]Entry(nil), j.entries...)
}

// CommittedPrefix returns the block IDs whose execution is journaled as
// complete ("done"), in execution order. A trailing "begin" without a
// "done" is the in-flight action at crash time; it is NOT included — the
// restarted controller re-issues it (idempotent).
func (j *Journal) CommittedPrefix() []int {
	var prefix []int
	for _, e := range j.entries {
		if e.Op == "done" {
			prefix = append(prefix, e.Block)
		}
	}
	return prefix
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	return j.log.Close()
}
