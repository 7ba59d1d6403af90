package ctrl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"klotski/internal/durable"
)

// journalBytes writes n begin/done entry pairs through the real Append
// path and returns the raw file contents plus the entries written.
func journalBytes(t *testing.T, n int) ([]byte, []Entry) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Entry
	for i := 0; i < n; i++ {
		for _, op := range []string{"begin", "done"} {
			e := Entry{Seq: i, Op: op, Block: i, Name: "blk"}
			if err := j.Append(e); err != nil {
				t.Fatal(err)
			}
			want = append(want, e)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, want
}

// TestNewJournalRefusesClobber is the regression test for the silent
// O_TRUNC clobber: creating a journal where one exists must fail with
// ErrJournalExists, and only the explicit overwrite constructor replaces
// it.
func TestNewJournalRefusesClobber(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Seq: 0, Op: "done", Block: 7}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if _, err := NewJournal(path); !errors.Is(err, ErrJournalExists) {
		t.Fatalf("NewJournal over existing file: err = %v, want ErrJournalExists", err)
	}
	// The refused create must not have damaged the original.
	entries, err := ReadJournal(path)
	if err != nil || len(entries) != 1 || entries[0].Block != 7 {
		t.Fatalf("journal damaged by refused create: %v, %v", entries, err)
	}

	j2, err := NewJournalOverwrite(path)
	if err != nil {
		t.Fatalf("explicit overwrite refused: %v", err)
	}
	j2.Close()
	if entries, err := ReadJournal(path); err != nil || len(entries) != 0 {
		t.Fatalf("overwrite did not truncate: %v, %v", entries, err)
	}
}

// TestJournalTruncationAtEveryOffset truncates a valid journal at every
// byte offset and requires each prefix to recover exactly the entries
// whose records are fully durable, in order, through both ReadJournal and
// OpenJournal — and the recovered journal to stay appendable. Truncation
// is tail damage by construction, so no offset may surface corruption.
func TestJournalTruncationAtEveryOffset(t *testing.T) {
	data, want := journalBytes(t, 3)
	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "trunc.wal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// A record is durable only when its trailing newline is on disk.
		intact := bytes.Count(data[:cut], []byte{'\n'})

		entries, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: truncation misread as corruption: %v", cut, err)
		}
		if len(entries) != intact {
			t.Fatalf("cut=%d: recovered %d entries, want %d", cut, len(entries), intact)
		}
		if intact > 0 && !reflect.DeepEqual(entries, want[:intact]) {
			t.Fatalf("cut=%d: recovered entries diverge: %v", cut, entries)
		}

		// Recovery must also be appendable: the torn tail is dropped from
		// the file so the next record does not merge with it.
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: OpenJournal: %v", cut, err)
		}
		if got := j.Entries(); len(got) != intact {
			t.Fatalf("cut=%d: OpenJournal replayed %d entries, want %d", cut, len(got), intact)
		}
		next := Entry{Seq: 99, Op: "done", Block: 99}
		if err := j.Append(next); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		j.Close()
		entries, err = ReadJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: reread after append: %v", cut, err)
		}
		if len(entries) != intact+1 || entries[intact] != next {
			t.Fatalf("cut=%d: append after recovery lost data: %v", cut, entries)
		}
	}
}

// TestJournalEmptyAndMissing: an empty journal is a valid empty log; a
// missing one is created by OpenJournal and errors from ReadJournal.
func TestJournalEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.wal")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(empty)
	if err != nil || len(entries) != 0 {
		t.Fatalf("empty journal: %v, %v", entries, err)
	}

	missing := filepath.Join(dir, "missing.wal")
	if _, err := ReadJournal(missing); err == nil {
		t.Fatal("ReadJournal on a missing file should error")
	}
	j, err := OpenJournal(missing)
	if err != nil {
		t.Fatalf("OpenJournal should create a missing journal: %v", err)
	}
	if err := j.Append(Entry{Seq: 0, Op: "done"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if entries, err := ReadJournal(missing); err != nil || len(entries) != 1 {
		t.Fatalf("created journal: %v, %v", entries, err)
	}
}

// TestJournalFormatPinned: testdata/control.journal was written by the
// journal before it moved onto internal/durable (escapes in a Detail
// included). It must read back, and appending its entries to a fresh
// journal must reproduce it byte for byte.
func TestJournalFormatPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "control.journal"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(filepath.Join("testdata", "control.journal"))
	if err != nil || len(entries) != 5 {
		t.Fatalf("read %d entries: %v", len(entries), err)
	}
	path := filepath.Join(t.TempDir(), "control.journal")
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-appended journal differs from the pinned bytes (%v):\n%s", err, got)
	}
}

// TestJournalRejectsUnversionedRecords: a journal written by a format this
// binary does not implement (no KJ1 envelope) must not be silently
// reinterpreted.
func TestJournalRejectsUnversionedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	content := `{"seq":0,"op":"done","block":1}` + "\n" + `{"seq":1,"op":"done","block":2}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("unversioned journal: err = %v, want durable.ErrCorrupt", err)
	}
}
