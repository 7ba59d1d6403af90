package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRunFlagTable: a flag the chosen mode does not read, and a value
// outside a flag's range, are refused before anything runs. The error names
// every such flag with the mode, and the run writes no plan, no report and
// no audit line. -audit alone, the campaign with its own flags and the
// benchmark's command lines are accepted.
func TestRunFlagTable(t *testing.T) {
	dir := t.TempDir()
	npdPath := writeNPD(t)
	planPath := filepath.Join(dir, "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	manifest := writeFleetManifest(t, "east", "west")
	outPath := filepath.Join(dir, "out.json")
	plan := func(extra ...string) []string { return append([]string{"-npd", npdPath}, extra...) }
	audit := func(extra ...string) []string { return plan(append([]string{"-audit", planPath}, extra...)...) }
	resume := func(extra ...string) []string {
		return plan(append([]string{"-resume", planPath, "-executed", "2"}, extra...)...)
	}
	fleet := func(extra ...string) []string { return append([]string{"-fleet", manifest}, extra...) }
	for _, row := range []struct {
		args    []string
		mode    string   // the mode the refusals name
		refused []string // the flags refused; none when the run must succeed
	}{
		// -simulate replays a whole plan; resume does not read it.
		{resume("-simulate", "4"), "resume", []string{"-simulate"}},
		// Audit verifies a document and exits.
		{audit("-simulate", "4"), "audit", []string{"-simulate"}},
		{audit("-chaos", "2"), "audit", []string{"-chaos"}},
		{audit("-resume", planPath, "-executed", "2"), "audit", []string{"-executed", "-resume"}},
		{audit("-simulate", "4", "-chaos", "2"), "audit", []string{"-chaos", "-simulate"}},
		{audit("-o", outPath, "-timeout", "1s", "-v", "-gap"), "audit", []string{"-gap", "-o", "-timeout", "-v"}},
		// -executed counts actions of the -resume document.
		{plan("-resume", planPath, "-executed", "-1"), "resume", []string{"-executed"}},
		{plan("-executed", "3"), "plan", []string{"-executed"}},
		// The campaign's flags need -chaos > 0.
		{plan("-gap-skip", "0.05", "-drift-threshold", "0.1"), "plan", []string{"-drift-threshold", "-gap-skip"}},
		{plan("-chaos-faults", "-4"), "plan", []string{"-chaos-faults"}},
		// Fleet reads its manifest, not an NPD document or a plan's flags,
		// and plan mode reads none of fleet's flags.
		{fleet("-chaos", "4", "-simulate", "3", "-growth", "0.01", "-planner", "dp", "-o", outPath), "fleet",
			[]string{"-chaos", "-growth", "-planner", "-simulate"}},
		{fleet("-npd", npdPath, "-o", outPath), "fleet", []string{"-npd"}},
		{plan("-fleet-workers", "3", "-fleet-checkpoint-dir", filepath.Join(dir, "ckpts")), "plan",
			[]string{"-fleet-checkpoint-dir", "-fleet-workers"}},
		// Ranges: no value is read as another.
		{plan("-chaos", "-3"), "plan", []string{"-chaos"}},
		{plan("-simulate", "-2"), "plan", []string{"-simulate"}},
		{plan("-growth", "-0.5"), "plan", []string{"-growth"}},
		{plan("-timeout", "-1s"), "plan", []string{"-timeout"}},
		{plan("-chaos", "2", "-chaos-faults", "0"), "plan", []string{"-chaos-faults"}},
		{plan("-chaos", "2", "-demand-margin", "1"), "plan", []string{"-demand-margin"}},
		{plan("-chaos", "2", "-drift-threshold", "-0.1"), "plan", []string{"-drift-threshold"}},
		{plan("-chaos", "2", "-gap-skip", "-0.05"), "plan", []string{"-gap-skip"}},
		{plan("-gap-max", "-1"), "plan", []string{"-gap-max"}},
		{fleet("-fleet-workers", "-1", "-o", outPath), "fleet", []string{"-fleet-workers"}},
		// Accepted.
		{plan("-audit", planPath), "", nil},
		{plan("-chaos", "4", "-chaos-faults", "4"), "", nil},
		{plan("-workers", "1"), "", nil},
		// The benchmark's plan-large, replan-chaos and fleet-mixed lines.
		{plan("-planner", "dp", "-workers", "1", "-gap-max", "0", "-o", outPath), "", nil},
		{plan("-workers", "1", "-chaos", "4", "-chaos-faults", "4", "-chaos-seed", "7", "-drift-threshold", "0.05", "-o", outPath), "", nil},
		{fleet("-fleet-workers", "2", "-o", outPath), "", nil},
	} {
		if err := os.Remove(outPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		out.Reset()
		errBuf.Reset()
		err := run(context.Background(), row.args, &out, &errBuf)
		if len(row.refused) == 0 {
			if err != nil {
				t.Errorf("%v: %v, want it accepted", row.args, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%v: accepted, want %v refused in %s mode", row.args, row.refused, row.mode)
			continue
		}
		lines := strings.Split(err.Error(), "\n")
		if len(lines) != len(row.refused) {
			t.Errorf("%v: %q, want exactly %v refused", row.args, err, row.refused)
		}
		for _, name := range row.refused {
			if !slices.ContainsFunc(lines, func(l string) bool {
				return strings.Contains(l+" ", name+" ") && strings.Contains(l, row.mode+" mode")
			}) {
				t.Errorf("%v: %q does not name %s with %s mode", row.args, err, name, row.mode)
			}
		}
		if out.Len() != 0 {
			t.Errorf("%v: a refused run wrote to stdout: %s", row.args, out.String())
		}
		if _, serr := os.Stat(outPath); !errors.Is(serr, os.ErrNotExist) {
			t.Errorf("%v: a refused run wrote %s", row.args, outPath)
		}
		if strings.Contains(errBuf.String(), "audit passed") {
			t.Errorf("%v: a refused run audited: %s", row.args, errBuf.String())
		}
	}
	// -audit alone still verifies the document.
	errBuf.Reset()
	if err := run(context.Background(), plan("-audit", planPath), &out, &errBuf); err != nil ||
		!strings.Contains(errBuf.String(), "audit passed") {
		t.Fatalf("-audit: %v, stderr %q", err, errBuf.String())
	}
}

// TestEveryFlagReadOrRefused walks every mode × every flag: a flag is read
// by the modes its flagTable row lists and refused, named with the mode, by
// every other, and where it has a range the nearest value outside it is
// refused. A flag defined without a row, or a row naming no flag, fails.
func TestEveryFlagReadOrRefused(t *testing.T) {
	modes := []mode{modePlan, modeResume, modeAudit, modeFleet, modePlan | modeCampaign, modeResume | modeCampaign}
	defined := map[string]bool{}
	new(config).flagSet(io.Discard).VisitAll(func(f *flag.Flag) {
		defined[f.Name] = true
		row, ok := flagTable[f.Name]
		if !ok {
			t.Errorf("-%s has no row in flagTable: declare the modes that read it", f.Name)
			return
		}
		for _, m := range modes {
			name := modeNames[m&^modeCampaign]
			err := setAndCheck(t, f.Name, flagValue(f, 2), m)
			if row.modes&m == 0 {
				if err == nil || !strings.Contains(err.Error(), "-"+f.Name) || !strings.Contains(err.Error(), name) {
					t.Errorf("-%s in %s (%05b): %v, want a refusal naming it and the mode", f.Name, name, m, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("-%s in %s (%05b): %v, want it read", f.Name, name, m, err)
			}
			if row.rng == nil {
				continue
			}
			below := row.rng.min
			if row.rng.rel == ">=" {
				below--
			}
			if err := setAndCheck(t, f.Name, flagValue(f, below), m); err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("-%s %s in %s (%05b): %v, want it refused as out of range", f.Name, flagValue(f, below), name, m, err)
			}
		}
	})
	for name := range flagTable {
		if !defined[name] {
			t.Errorf("flagTable has a row for -%s, which is not a flag", name)
		}
	}
}

// setAndCheck sets one flag on a fresh flag set and checks it in mode m.
func setAndCheck(t *testing.T, name, value string, m mode) error {
	t.Helper()
	fs := new(config).flagSet(io.Discard)
	if err := fs.Set(name, value); err != nil {
		t.Fatalf("-%s %s: %v", name, value, err)
	}
	return checkFlags(fs, m)
}

// flagValue spells x as a value of flag f: a path for a string flag, true
// for a bool, seconds for a duration.
func flagValue(f *flag.Flag, x float64) string {
	switch f.Value.(flag.Getter).Get().(type) {
	case string:
		return "x"
	case bool:
		return "true"
	case time.Duration:
		return time.Duration(x * float64(time.Second)).String()
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// TestDocumentedCommandsParse feeds every klotski command line in the
// fenced blocks of README.md and docs/*.md through parse, which refuses a
// flag its mode does not read or a value out of range: each must be
// accepted. Nothing is opened or run.
func TestDocumentedCommandsParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join("..", "..", "README.md"))
	fence := regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	command := regexp.MustCompile(`(?:^|\s)(?:klotski|go run \./cmd/klotski)\s+(-.*)$`)
	n := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range fence.FindAllString(string(data), -1) {
			for _, line := range strings.Split(strings.ReplaceAll(block, "\\\n", " "), "\n") {
				line, _, _ = strings.Cut(line, "#")
				m := command.FindStringSubmatch(strings.TrimSpace(line))
				if m == nil {
					continue
				}
				n++
				args := strings.Fields(strings.TrimSuffix(strings.TrimSpace(m[1]), "&"))
				if _, err := parse(args, io.Discard); err != nil {
					t.Errorf("%s: %q: %v", file, strings.TrimSpace(line), err)
				}
			}
		}
	}
	if n < 10 {
		t.Fatalf("found %d klotski command lines in the documents, want the CLI section's (at least 10)", n)
	}
}
