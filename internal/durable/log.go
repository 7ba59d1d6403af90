// Package durable is the one on-disk layer: every checksummed format and
// every durable write of the planner's state lives here. Log is the
// append-only KJ1 record log under the control journal and klotskid's job
// journals; Seal is the versioned envelope of checkpoint and plan files;
// WriteFile is the atomic replace that puts them on disk. Both formats
// share one CRC32C table, and a damaged record or envelope is reported,
// never reinterpreted.
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// logMagic is the record-envelope format tag. Every log line is
//
//	KJ1 <crc32c-hex8> <record-json>\n
//
// where the CRC32C (Castagnoli) covers the record JSON bytes exactly as
// written. The version is part of the magic: a future format bump renames
// it to KJ2 and old readers fail loudly instead of misparsing.
const logMagic = "KJ1"

// crc32c is the CRC32C checksum of every format in this package. The table
// is made at first use, not at process start: MakeTable builds the
// Castagnoli table once behind a sync.Once, so later calls only return it.
func crc32c(data []byte) uint32 {
	return crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
}

// ErrCorrupt means a log holds a record that is malformed or fails its
// checksum somewhere other than the final line — mid-file damage that
// truncation during a crash cannot produce, so the log cannot be trusted
// for recovery.
var ErrCorrupt = errors.New("durable: journal corrupt")

// Log is an append-only log of JSON records of type T: one versioned,
// CRC32C-checksummed record per line, fsynced per append. On read it
// distinguishes the two failure modes durable logs actually have: a
// damaged final record is the signature of a crash mid-append (torn tail)
// and is dropped, recovering the clean prefix; a damaged record anywhere
// else is real corruption and fails with ErrCorrupt.
type Log[T any] struct {
	f *os.File
}

// Create creates an empty log at path, refusing to clobber any existing
// file: the error then wraps fs.ErrExist.
func Create[T any](path string) (*Log[T], error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: creating log: %w", err)
	}
	return &Log[T]{f: f}, nil
}

// Open opens an existing log for crash recovery: it returns the records
// of the clean prefix (a torn final record is dropped) and positions new
// appends after them. The file is truncated to the clean prefix first, so
// a recovered torn tail is not concatenated with the next append into one
// giant corrupt line. Mid-file damage fails with an error wrapping
// ErrCorrupt; a missing file with one wrapping fs.ErrNotExist.
func Open[T any](path string) (*Log[T], []T, error) {
	recs, cleanLen, err := read[T](path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: opening log: %w", err)
	}
	if err := f.Truncate(cleanLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: truncating torn log tail: %w", err)
	}
	if _, err := f.Seek(cleanLen, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("durable: seeking log: %w", err)
	}
	return &Log[T]{f: f}, recs, nil
}

// Read reads a log's clean records without opening it for appends. A
// damaged final record is tolerated (crash mid-append); damage anywhere
// else fails with an error wrapping ErrCorrupt.
func Read[T any](path string) ([]T, error) {
	recs, _, err := read[T](path)
	return recs, err
}

func read[T any](path string) ([]T, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("durable: reading log: %w", err)
	}
	return Parse[T](data)
}

// Append writes recs in one write and syncs them to stable storage before
// returning: callers apply the records' in-memory effects only after it
// returns nil. A crash inside the write leaves what a crash inside or
// between separate appends of the same records would: whole records, then
// at most a torn one, which Open drops.
func (l *Log[T]) Append(recs ...T) error {
	buf, err := encode(recs...)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("durable: appending to log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: syncing log: %w", err)
	}
	return nil
}

// Close releases the file; it is safe on a nil or closed log.
func (l *Log[T]) Close() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Parse walks a KJ1 record stream, returning the records of its clean
// (undamaged) prefix and that prefix's byte length. A record that fails
// its envelope check, its checksum, or decode is tolerated only as the
// final record — the torn tail of a crash mid-append, which is silently
// dropped; damage anywhere else fails with an error wrapping ErrCorrupt.
// Records are committed in order: none after a damaged one is returned.
func Parse[T any](data []byte) (recs []T, cleanLen int64, err error) {
	var (
		pendingErr error
		offset     int
		line       int
	)
	for offset < len(data) {
		line++
		raw := data[offset:]
		next := len(data)
		complete := false
		if nl := bytes.IndexByte(raw, '\n'); nl >= 0 {
			raw = raw[:nl]
			next = offset + nl + 1
			complete = true
		}
		if pendingErr != nil {
			// The damaged record was not the last one: real corruption.
			return nil, 0, pendingErr
		}
		switch payload, derr := decodeLine(raw); {
		case len(raw) == 0:
			// Append emits exactly one non-empty line per record, so a
			// blank line is damage: tolerated at the tail, fatal mid-file.
			pendingErr = fmt.Errorf("%w: blank record at line %d", ErrCorrupt, line)
		case derr != nil:
			pendingErr = fmt.Errorf("%w: line %d: %v", ErrCorrupt, line, derr)
		case !complete:
			// The payload decodes but its trailing newline never hit disk:
			// the append's fsync cannot have completed, so the record was
			// never durable. Treat it as the torn tail it is.
			pendingErr = fmt.Errorf("%w: line %d: record missing trailing newline", ErrCorrupt, line)
		default:
			var r T
			if derr := json.Unmarshal(payload, &r); derr != nil {
				pendingErr = fmt.Errorf("%w: line %d: unmarshaling record: %v", ErrCorrupt, line, derr)
				break
			}
			recs = append(recs, r)
			cleanLen = int64(next)
		}
		offset = next
	}
	// A single damaged final record is the torn tail of a crash
	// mid-append: recover the clean prefix silently.
	return recs, cleanLen, nil
}

// encode renders recs as KJ1 lines: for each, magic, CRC32C over its JSON
// bytes exactly as marshaled, the JSON, newline. json.Marshal escapes
// every newline in a string and compacts a Marshaler's output, so each
// record is exactly one line. The output is a deterministic function of
// the records, which keeps every log built on the envelope byte-identical
// across runs that append the same records.
func encode[T any](recs ...T) ([]byte, error) {
	var buf []byte
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			return nil, fmt.Errorf("durable: encoding record: %w", err)
		}
		buf = append(buf, logMagic...)
		buf = append(buf, ' ')
		buf = fmt.Appendf(buf, "%08x", crc32c(payload))
		buf = append(buf, ' ')
		buf = append(buf, payload...)
		buf = append(buf, '\n')
	}
	return buf, nil
}

// decodeLine parses and verifies one envelope line (without its trailing
// newline), returning the checksummed payload.
func decodeLine(raw []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(raw, []byte(logMagic+" "))
	if !ok {
		return nil, fmt.Errorf("record does not start with %q (unversioned or torn record)", logMagic)
	}
	if len(rest) < 9 || rest[8] != ' ' {
		return nil, errors.New("record missing checksum field")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(rest[:8]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("unparsable checksum %q", rest[:8])
	}
	payload := rest[9:]
	if got := crc32c(payload); got != want {
		return nil, fmt.Errorf("checksum mismatch: record says %08x, payload hashes to %08x", want, got)
	}
	return payload, nil
}
