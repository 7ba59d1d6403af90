package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// entry is the record type of the format battery.
type entry struct {
	Seq   int    `json:"seq"`
	Op    string `json:"op"`
	Block int    `json:"block"`
	Name  string `json:"name,omitempty"`
}

// logBytes appends n begin/done record pairs through the real Append path,
// one append each, and returns the raw file contents plus the records.
func logBytes(t *testing.T, n int) ([]byte, []entry) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	l, err := Create[entry](path)
	if err != nil {
		t.Fatal(err)
	}
	var want []entry
	for i := 0; i < n; i++ {
		for _, op := range []string{"begin", "done"} {
			e := entry{Seq: i, Op: op, Block: i, Name: "blk"}
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
			want = append(want, e)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, want
}

// TestJournalTruncationAtEveryOffset truncates a valid log at every byte
// offset and requires each prefix to either recover cleanly (the records
// that are fully durable, in order) or — never — yield extra or corrupted
// records. Truncation is tail damage by construction, so no offset may
// surface ErrCorrupt. Offset 0 is the empty file: a valid empty log.
func TestJournalTruncationAtEveryOffset(t *testing.T) {
	data, want := logBytes(t, 3)
	dir := t.TempDir()
	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "trunc.wal")
		if err := os.WriteFile(path, Tear(data, int64(cut)), 0o644); err != nil {
			t.Fatal(err)
		}
		// A record is durable only when its trailing newline is on disk.
		durable := bytes.Count(data[:cut], []byte{'\n'})

		recs, err := Read[entry](path)
		if err != nil {
			t.Fatalf("cut=%d: truncation misread as corruption: %v", cut, err)
		}
		if len(recs) != durable || (durable > 0 && !reflect.DeepEqual(recs, want[:durable])) {
			t.Fatalf("cut=%d: recovered %v, want the first %d records", cut, recs, durable)
		}

		// Recovery must also be appendable: the torn tail is dropped from
		// the file so the next record does not merge with it.
		l, got, err := Open[entry](path)
		if err != nil || len(got) != durable {
			t.Fatalf("cut=%d: Open recovered %d records: %v", cut, len(got), err)
		}
		next := entry{Seq: 99, Op: "done", Block: 99}
		if err := l.Append(next); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		l.Close()
		recs, err = Read[entry](path)
		if err != nil || len(recs) != durable+1 || recs[durable] != next {
			t.Fatalf("cut=%d: append after recovery lost data: %v, %v", cut, recs, err)
		}
	}
}

// TestJournalFlippedByteMidFile flips every byte that belongs to a record
// other than the last two lines (where damage is indistinguishable from a
// torn tail) and requires an explicit ErrCorrupt — mid-file damage must
// never be silently accepted.
func TestJournalFlippedByteMidFile(t *testing.T) {
	data, _ := logBytes(t, 3) // 6 lines
	bounds := RecordBoundaries(data)
	// Damage strictly before the penultimate line is always mid-file: even
	// a flipped newline merges two records that are followed by more.
	safeEnd := bounds[len(bounds)-3]

	path := filepath.Join(t.TempDir(), "flip.wal")
	for pos := int64(0); pos < safeEnd; pos++ {
		if err := os.WriteFile(path, FlipByte(data, pos), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read[entry](path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", pos, err)
		}
		if _, _, err := Open[entry](path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: Open accepted a corrupt log: %v", pos, err)
		}
	}
}

// TestJournalFlippedByteInTail: damage confined to the final record is the
// torn-tail signature and recovers the clean prefix.
func TestJournalFlippedByteInTail(t *testing.T) {
	data, want := logBytes(t, 3)
	bounds := RecordBoundaries(data)
	path := filepath.Join(t.TempDir(), "tail.wal")
	// Inside the final record's body.
	if err := os.WriteFile(path, FlipByte(data, bounds[len(bounds)-2]+10), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Read[entry](path)
	if err != nil {
		t.Fatalf("tail damage misread as corruption: %v", err)
	}
	if !reflect.DeepEqual(recs, want[:len(want)-1]) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want)-1)
	}
}

// TestLogEmptyAndMissing: a missing log is an error that wraps
// fs.ErrNotExist (callers that create on open test for it), and Create
// refuses any existing file, even an empty one, with fs.ErrExist.
func TestLogEmptyAndMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing.wal")
	if _, err := Read[entry](path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Read on a missing log: err = %v, want fs.ErrNotExist", err)
	}
	if _, _, err := Open[entry](path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open on a missing log: err = %v, want fs.ErrNotExist", err)
	}
	l, err := Create[entry](path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close() // nil-safe and idempotent
	(*Log[entry])(nil).Close()
	if _, err := Create[entry](path); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("Create over an empty log: err = %v, want fs.ErrExist", err)
	}
}

// TestJournalRejectsUnversionedRecords: a log written by a format this
// binary does not implement (no KJ1 envelope) must not be silently
// reinterpreted, nor may one that holds garbage mid-file.
func TestJournalRejectsUnversionedRecords(t *testing.T) {
	for _, content := range []string{
		`{"seq":0,"op":"done","block":1}` + "\n" + `{"seq":1,"op":"done","block":2}` + "\n",
		"KJ1 00000000 {}\nGARBAGE\nKJ1 00000000 {}\n",
	} {
		if _, _, err := Parse[entry]([]byte(content)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%q: err = %v, want ErrCorrupt", content, err)
		}
	}
}

// FuzzJournalDecode throws arbitrary bytes at the log parser and checks
// its safety invariants: it never panics, the clean-prefix length it
// reports stays inside the input and re-parses to the same records with no
// error, and every recovered record re-encodes onto the original bytes
// (nothing is ever invented).
func FuzzJournalDecode(f *testing.F) {
	valid, err := encode(entry{Seq: 1, Op: "done", Block: 3, Name: "blk"})
	if err != nil {
		f.Fatal(err)
	}
	two := append(append([]byte(nil), valid...), valid...)
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // torn tail
	f.Add(two)
	f.Add(append(append([]byte(nil), valid...), "GARBAGE\n"...))
	f.Add([]byte("KJ1 00000000 {}\n"))
	f.Add([]byte("{\"seq\":0,\"op\":\"done\"}\n")) // unversioned
	f.Add([]byte("\n\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, cleanLen, err := Parse[entry](data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corruption error from parser: %v", err)
			}
			return
		}
		if cleanLen < 0 || cleanLen > int64(len(data)) {
			t.Fatalf("cleanLen %d outside input of %d bytes", cleanLen, len(data))
		}
		// The clean prefix must be exactly the recovered records, byte for
		// byte: parsing it again yields the same records with no damage,
		// and re-encoding them reproduces it.
		again, againLen, err := Parse[entry](data[:cleanLen])
		if err != nil || againLen != cleanLen || len(again) != len(recs) {
			t.Fatalf("clean prefix does not re-parse cleanly: %v (len %d vs %d, %d vs %d records)",
				err, againLen, cleanLen, len(again), len(recs))
		}
		for i, e := range recs {
			if again[i] != e {
				t.Fatalf("record %d changed on re-parse: %+v vs %+v", i, e, again[i])
			}
			// Every recovered record survives an encode/decode round trip
			// (a payload may be non-canonical JSON, so byte equality is
			// not required — semantic equality is).
			line, err := encode(e)
			if err != nil {
				t.Fatalf("recovered record does not re-encode: %v", err)
			}
			payload, err := decodeLine(bytes.TrimSuffix(line, []byte{'\n'}))
			if err != nil {
				t.Fatalf("record %d envelope round trip: %v", i, err)
			}
			var back entry
			if err := json.Unmarshal(payload, &back); err != nil || back != e {
				t.Fatalf("record %d round trip: %+v vs %+v (%v)", i, e, back, err)
			}
		}
	})
}
