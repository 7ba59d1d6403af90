package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Sealed envelope for durable planner state (checkpoints, plan documents).
//
// A checkpoint is the only thing standing between a crashed multi-hour
// planning run and starting over, so the bytes on disk must be able to
// prove they are intact and from a format this binary understands. Seal
// wraps a payload document in a versioned envelope carrying a CRC32C of
// the payload; OpenSealed verifies both before handing the payload back,
// turning silent bit rot or a torn write into an explicit, actionable
// error instead of a planner resumed from garbage.

// SealVersion is the current envelope format version. Readers reject any
// other version loudly rather than guessing at field semantics.
const SealVersion = 1

// Seal corruption sentinels, matchable via errors.Is.
var (
	// ErrSealVersion means the envelope's sealVersion is not one this
	// binary implements.
	ErrSealVersion = errors.New("durable: unsupported seal version")

	// ErrSealChecksum means the payload bytes do not hash to the recorded
	// CRC32C — the file was truncated, bit-rotted, or hand-edited.
	ErrSealChecksum = errors.New("durable: sealed payload checksum mismatch")

	// ErrSealFormat means the envelope's format tag does not match what
	// the caller expected (e.g. a plan document offered where a checkpoint
	// was required).
	ErrSealFormat = errors.New("durable: sealed payload format mismatch")
)

// Sealed is the on-disk envelope: a version, a format tag naming what the
// payload is, a CRC32C over the compacted payload bytes, and the payload
// itself embedded as raw JSON.
type Sealed struct {
	SealVersion int             `json:"sealVersion"`
	Format      string          `json:"format"`
	CRC32C      string          `json:"crc32c"`
	Payload     json.RawMessage `json:"payload"`
}

// sealChecksum hashes the payload in compacted form so the checksum is
// invariant under re-indentation in either direction: a pretty-printed
// envelope verifies against a payload that was sealed compact, and vice
// versa.
func sealChecksum(payload []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return "", fmt.Errorf("durable: compacting sealed payload: %w", err)
	}
	return fmt.Sprintf("%08x", crc32c(buf.Bytes())), nil
}

// Seal wraps payload (which must be valid JSON) in a versioned,
// checksummed envelope tagged with format, returning the envelope bytes
// ready to write to disk.
func Seal(format string, payload []byte) ([]byte, error) {
	sum, err := sealChecksum(payload)
	if err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(Sealed{
		SealVersion: SealVersion,
		Format:      format,
		CRC32C:      sum,
		Payload:     json.RawMessage(payload),
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("durable: encoding sealed envelope: %w", err)
	}
	return append(out, '\n'), nil
}

// SealValue marshals v to JSON and seals it under format.
func SealValue(format string, v any) ([]byte, error) {
	payload, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("durable: encoding sealed payload: %w", err)
	}
	return Seal(format, payload)
}

// WriteSealedFile seals v under format and writes the envelope to path
// with WriteFile.
func WriteSealedFile(path, format string, v any) error {
	data, err := SealValue(format, v)
	if err != nil {
		return err
	}
	return WriteFile(path, data)
}

// WriteFile replaces path with data atomically: temp file in the same
// directory, write, fsync, rename, then an fsync of the directory so the
// rename itself is durable. A crash mid-write leaves either the old file
// or the new one, never a torn hybrid at the final path.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("durable: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("durable: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("durable: renaming into place: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: opening directory: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: syncing directory: %w", err)
	}
	return nil
}

// IsSealed reports whether data looks like a sealed envelope (as opposed
// to a bare payload document), without verifying it. Readers use this to
// accept both sealed and legacy plain files.
func IsSealed(data []byte) bool {
	var probe struct {
		SealVersion *int `json:"sealVersion"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.SealVersion != nil
}

// OpenSealed verifies a sealed envelope — version, format tag, checksum —
// and returns the payload bytes. Each failure mode carries an actionable
// error: version mismatches say what was found and what this binary
// supports, checksum mismatches say both sums, format mismatches name
// both tags.
func OpenSealed(format string, data []byte) ([]byte, error) {
	var s Sealed
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("durable: decoding sealed envelope: %w", err)
	}
	if s.SealVersion != SealVersion {
		return nil, fmt.Errorf("%w: file says version %d, this binary supports version %d — re-generate the file or use a matching build",
			ErrSealVersion, s.SealVersion, SealVersion)
	}
	if s.Format != format {
		return nil, fmt.Errorf("%w: file is %q, expected %q", ErrSealFormat, s.Format, format)
	}
	sum, err := sealChecksum(s.Payload)
	if err != nil {
		return nil, fmt.Errorf("durable: hashing sealed payload: %w", err)
	}
	if sum != s.CRC32C {
		return nil, fmt.Errorf("%w: envelope records %s, payload hashes to %s — the file was truncated or corrupted and must not be trusted",
			ErrSealChecksum, s.CRC32C, sum)
	}
	return s.Payload, nil
}
