package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"klotski"
)

func TestRunSuiteEmitsValidNPD(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-suite", "B", "-scale", "0.15"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	doc, err := klotski.LoadNPD(&out)
	if err != nil {
		t.Fatalf("emitted NPD invalid: %v", err)
	}
	if doc.Name != "B" || doc.Migration == nil {
		t.Errorf("document = %+v", doc)
	}
	// The emitted document must build a plannable scenario.
	s, err := doc.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := klotski.PlanAStar(s.Task, klotski.Options{}); err != nil {
		t.Fatalf("emitted scenario unplannable: %v", err)
	}
}

func TestRunSuiteVariantsCarryMigrations(t *testing.T) {
	cases := map[string]string{
		"A":      "hgrid-v1-v2",
		"E-DMAG": "dmag",
		"E-SSW":  "ssw-forklift",
	}
	for suite, kind := range cases {
		var out, errBuf bytes.Buffer
		if err := run([]string{"-suite", suite, "-scale", "0.12"}, &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", suite, err)
		}
		doc, err := klotski.LoadNPD(&out)
		if err != nil {
			t.Fatalf("%s: %v", suite, err)
		}
		if doc.Migration.Kind != kind {
			t.Errorf("%s migration kind = %s, want %s", suite, doc.Migration.Kind, kind)
		}
	}
}

func TestRunStats(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-suite", "A", "-scale", "0.2", "-stats"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"switches:", "circuits:", "migration:", "demands:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCustomRegion(t *testing.T) {
	var out, errBuf bytes.Buffer
	args := []string{"-dcs", "1", "-pods", "2", "-rsw", "2", "-planes", "4",
		"-ssw", "2", "-grids", "4", "-fadu", "2", "-fauu", "1", "-ebs", "2"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	doc, err := klotski.LoadNPD(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Fabric) != 1 || doc.HGRID.Grids != 4 {
		t.Errorf("custom document = %+v", doc)
	}
}

func TestRunCustomDMAGGetsMAPart(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-migration", "dmag"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	doc, err := klotski.LoadNPD(&out)
	if err != nil {
		t.Fatal(err)
	}
	if doc.MA == nil || doc.MA.PerEB != 2 {
		t.Error("DMAG document should carry an MA part")
	}
}

func TestRunWritesFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "r.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-suite", "A", "-scale", "0.2", "-o", p}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"hgrid"`) {
		t.Error("written file missing hgrid part")
	}
}

func TestRunUnknownSuite(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-suite", "Z"}, &out, &errBuf); err == nil {
		t.Error("unknown suite should error")
	}
}

// TestRunRefusesIgnoredInput: input topogen would drop is refused, naming
// what it drops, before anything is written; the benchmark's command and
// the documented ones are accepted.
func TestRunRefusesIgnoredInput(t *testing.T) {
	dir := t.TempDir()
	o := filepath.Join(dir, "out.json")
	type row struct {
		args []string
		want string // what the refusal names
	}
	refused := []row{
		{[]string{"-suite", "E", "stray"}, `"stray"`},
		{[]string{"-dcs", "3", "stray"}, `"stray"`},
		{[]string{"-scale", "0.5", "-o", o}, "-scale"},
		{[]string{"-suite", "E", "-stats", "-o", o}, "-o"},
	}
	for _, name := range customFlags {
		refused = append(refused, row{[]string{"-suite", "E", "-" + name, "1", "-o", o}, "-" + name})
	}
	for _, r := range refused {
		var out, errBuf bytes.Buffer
		err := run(r.args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("topogen %v: %v, want a refusal naming %s", r.args, err, r.want)
		}
		if _, serr := os.Stat(o); out.Len() > 0 || serr == nil {
			t.Errorf("topogen %v wrote output before refusing", r.args)
			os.Remove(o)
		}
	}
	for _, args := range [][]string{
		{"-suite", "E", "-scale", "0.25", "-o", filepath.Join(dir, "E.json")}, // the benchmark's
		{"-suite", "C", "-scale", "0.25", "-o", filepath.Join(dir, "C.json")}, // README.md's
		{"-suite", "E", "-scale", "0.25", "-stats"},
		{"-dcs", "3", "-pods", "8", "-rsw", "6", "-planes", "4", "-ssw", "8", "-grids", "4",
			"-migration", "hgrid-v1-v2", "-o", filepath.Join(dir, "region.json")},
	} {
		var out, errBuf bytes.Buffer
		if err := run(args, &out, &errBuf); err != nil {
			t.Errorf("topogen %v: %v", args, err)
		}
	}
}
