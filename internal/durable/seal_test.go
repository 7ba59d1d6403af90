package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type sealFixture struct {
	Name    string `json:"name"`
	Actions int    `json:"actions"`
}

func TestSealRoundTrip(t *testing.T) {
	in := sealFixture{Name: "ckpt", Actions: 12}
	data, err := SealValue("klotski/plan", in)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSealed(data) {
		t.Fatal("sealed envelope not recognized")
	}
	if IsSealed([]byte(`{"version":1,"actions":3}`)) {
		t.Fatal("bare payload misrecognized as sealed")
	}
	payload, err := OpenSealed("klotski/plan", data)
	if err != nil {
		t.Fatal(err)
	}
	var out sealFixture
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

// TestWriteSealedFileReplaces writes a sealed file twice over the same
// path: each write leaves exactly the envelope SealValue makes, the second
// replaces the first, and no temp file stays behind.
func TestWriteSealedFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	for _, in := range []sealFixture{{Name: "first", Actions: 1}, {Name: "second", Actions: 2}} {
		if err := WriteSealedFile(path, "klotski/plan", in); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SealValue("klotski/plan", in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file holds %q, want %q", got, want)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only the sealed file", len(ents), err)
	}
}

func TestSealRejectsVersionAndFormatMismatch(t *testing.T) {
	data, err := SealValue("klotski/plan", sealFixture{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSealed("klotski/other", data); !errors.Is(err, ErrSealFormat) {
		t.Fatalf("format mismatch: err = %v, want ErrSealFormat", err)
	}

	var s Sealed
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	s.SealVersion = SealVersion + 1
	bumped, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSealed("klotski/plan", bumped); !errors.Is(err, ErrSealVersion) {
		t.Fatalf("version mismatch: err = %v, want ErrSealVersion", err)
	}
}

func TestSealRejectsTamperedPayload(t *testing.T) {
	data, err := SealValue("klotski/plan", sealFixture{Name: "ckpt", Actions: 12})
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"actions": 12`), []byte(`"actions": 13`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in envelope")
	}
	if _, err := OpenSealed("klotski/plan", tampered); !errors.Is(err, ErrSealChecksum) {
		t.Fatalf("tampered payload: err = %v, want ErrSealChecksum", err)
	}
}

// TestSealTruncationAtEveryOffset: a sealed file cut at any byte offset is
// either rejected explicitly or — when only trailing whitespace was lost —
// recovers the exact original payload. A torn write must never be
// silently accepted as different content.
func TestSealTruncationAtEveryOffset(t *testing.T) {
	data, err := SealValue("klotski/plan", sealFixture{Name: "ckpt", Actions: 12})
	if err != nil {
		t.Fatal(err)
	}
	full, err := OpenSealed("klotski/plan", data)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		payload, err := OpenSealed("klotski/plan", data[:cut])
		if err != nil {
			continue
		}
		if !bytes.Equal(payload, full) {
			t.Fatalf("cut=%d: truncated envelope accepted with altered payload", cut)
		}
	}
}

// TestSealChecksumIndentationInvariant: the checksum covers the compacted
// payload, so re-indenting a sealed file in either direction does not
// break verification.
func TestSealChecksumIndentationInvariant(t *testing.T) {
	data, err := SealValue("klotski/plan", sealFixture{Name: "ckpt", Actions: 12})
	if err != nil {
		t.Fatal(err)
	}
	var compacted bytes.Buffer
	if err := json.Compact(&compacted, data); err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, data, "", "\t"); err != nil {
		t.Fatal(err)
	}
	for name, variant := range map[string][]byte{
		"compacted": compacted.Bytes(),
		"indented":  indented.Bytes(),
	} {
		if _, err := OpenSealed("klotski/plan", variant); err != nil {
			t.Errorf("%s envelope fails verification: %v", name, err)
		}
	}
}
