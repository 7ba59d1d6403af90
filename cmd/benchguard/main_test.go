package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: klotski
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPlannerGuard/AStar-8         	       3	    806467 ns/op	         0 hit-rate	        23.00 states/op	   97232 B/op	     246 allocs/op
BenchmarkPlannerGuard/DP-8            	       3	    688796 ns/op	         0.03846 hit-rate	        25.00 states/op	   93400 B/op	     225 allocs/op
PASS
ok  	klotski	0.012s
`

func TestParseBench(t *testing.T) {
	res, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("want 2 benchmarks, got %d: %v", len(res), res)
	}
	astar, ok := res["PlannerGuard/AStar"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", res)
	}
	if astar["ns/op"] != 806467 {
		t.Errorf("ns/op = %v", astar["ns/op"])
	}
	if astar["states/op"] != 23 {
		t.Errorf("states/op = %v", astar["states/op"])
	}
	if res["PlannerGuard/DP"]["hit-rate"] != 0.03846 {
		t.Errorf("hit-rate = %v", res["PlannerGuard/DP"]["hit-rate"])
	}
}

// guard runs the CLI against the given stdin and returns exit code plus
// combined output.
func guard(t *testing.T, stdin string, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(strings.NewReader(stdin), &out, &errOut, args)
	return code, out.String() + errOut.String()
}

func TestBootstrapThenPass(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH.json")

	code, out := guard(t, benchOutput, "-baseline", base)
	if code != 0 {
		t.Fatalf("bootstrap run failed (%d): %s", code, out)
	}
	if !strings.Contains(out, "bootstrapping") {
		t.Errorf("expected bootstrap notice, got: %s", out)
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}

	// Identical rerun must pass.
	code, out = guard(t, benchOutput, "-baseline", base)
	if code != 0 {
		t.Fatalf("identical rerun failed (%d): %s", code, out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("identical rerun reported failures: %s", out)
	}
}

func TestFailsOnSlowdown(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH.json")
	if code, out := guard(t, benchOutput, "-baseline", base); code != 0 {
		t.Fatal(out)
	}
	slow := strings.Replace(benchOutput, "806467 ns/op", "2806467 ns/op", 1)
	code, out := guard(t, slow, "-baseline", base)
	if code != 1 {
		t.Fatalf("3.5x slowdown should fail, got code %d: %s", code, out)
	}
	if !strings.Contains(out, "FAIL PlannerGuard/AStar ns/op") {
		t.Errorf("failure should name the regressed metric: %s", out)
	}
}

func TestToleratesNoiseWithinLimit(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH.json")
	if code, out := guard(t, benchOutput, "-baseline", base); code != 0 {
		t.Fatal(out)
	}
	noisy := strings.Replace(benchOutput, "806467 ns/op", "950000 ns/op", 1) // +18%
	if code, out := guard(t, noisy, "-baseline", base); code != 0 {
		t.Fatalf("18%% growth is within the 30%% default: %s", out)
	}
}

func TestFailsOnMissingBenchmark(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH.json")
	if code, out := guard(t, benchOutput, "-baseline", base); code != 0 {
		t.Fatal(out)
	}
	onlyDP := strings.Replace(benchOutput,
		"BenchmarkPlannerGuard/AStar-8         	       3	    806467 ns/op	         0 hit-rate	        23.00 states/op	   97232 B/op	     246 allocs/op\n", "", 1)
	code, out := guard(t, onlyDP, "-baseline", base)
	if code != 1 {
		t.Fatalf("vanished benchmark should fail, got %d: %s", code, out)
	}
	if !strings.Contains(out, "missing from current run") {
		t.Errorf("unexpected output: %s", out)
	}
}

func TestUpdateRewritesBaseline(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH.json")
	if code, out := guard(t, benchOutput, "-baseline", base); code != 0 {
		t.Fatal(out)
	}
	slow := strings.Replace(benchOutput, "806467 ns/op", "9806467 ns/op", 1)
	if code, out := guard(t, slow, "-baseline", base, "-update"); code != 0 {
		t.Fatalf("-update should not compare: %s", out)
	}
	// The slowed run is now the baseline, so it passes.
	if code, out := guard(t, slow, "-baseline", base); code != 0 {
		t.Fatalf("run matching updated baseline failed: %s", out)
	}
}

// largeBenchOutput satisfies the large fixture's relational invariant:
// audit overhead sits at +10%/+8% against the NoAudit twins.
const largeBenchOutput = `goos: linux
goarch: amd64
pkg: klotski
BenchmarkPlannerGuardLarge/AStar-8         	       5	 220000000 ns/op	      1234 states/op
BenchmarkPlannerGuardLarge/DP-8            	       5	 270000000 ns/op	      2000 states/op
BenchmarkPlannerGuardLarge/AStarNoAudit-8  	       5	 200000000 ns/op	      1234 states/op
BenchmarkPlannerGuardLarge/DPNoAudit-8     	       5	 250000000 ns/op	      2000 states/op
PASS
ok  	klotski	11.2s
`

func TestRelationalInvariantsPass(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH.json")
	code, out := guard(t, largeBenchOutput, "-baseline", base)
	if code != 0 {
		t.Fatalf("invariant-satisfying run failed (%d): %s", code, out)
	}
	if !strings.Contains(out, "audit-overhead") {
		t.Errorf("relational checks not reported: %s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("unexpected relational failure: %s", out)
	}
}

func TestRelationalAuditOverheadBlocksUpdate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH.json")
	// Audited AStar at +20% over NoAudit blows the default +15% allowance;
	// bootstrapping (an implicit -update) must refuse to commit it.
	costly := strings.Replace(largeBenchOutput, "220000000 ns/op", "240000000 ns/op", 1)
	code, out := guard(t, costly, "-baseline", base)
	if code != 1 {
		t.Fatalf("audit overhead beyond limit should block bootstrap, got %d: %s", code, out)
	}
	if !strings.Contains(out, "refusing to write baseline") {
		t.Errorf("expected update refusal notice: %s", out)
	}
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Errorf("baseline must not be written on relational failure")
	}
}

func TestRelationalSkippedWithoutLargeFixture(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH.json")
	code, out := guard(t, benchOutput, "-baseline", base)
	if code != 0 {
		t.Fatal(out)
	}
	if strings.Contains(out, "audit-overhead") || strings.Contains(out, "fleet-vs-") {
		t.Errorf("relational rules must skip silently when the fixture is absent: %s", out)
	}
}

const fleetBenchOutput = `goos: linux
BenchmarkFleetGuard/Sequential-8 	      30	  62000000 ns/op
BenchmarkFleetGuard/Naive-8      	      30	  90000000 ns/op
BenchmarkFleetGuard/Fleet-8      	      30	  60000000 ns/op
PASS
ok  	klotski	9.1s
`

func TestRelationalFleetExcess(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH.json")
	code, out := guard(t, fleetBenchOutput, "-baseline", base)
	if code != 0 {
		t.Fatalf("fleet beating both alternatives should pass, got %d: %s", code, out)
	}
	if !strings.Contains(out, "fleet-vs-sequential") || !strings.Contains(out, "fleet-vs-naive") {
		t.Errorf("fleet relational checks not reported: %s", out)
	}

	// Fleet at +21% over sequential blows the default +10% allowance
	// (while staying inside the +30% absolute-baseline tolerance, so the
	// failure is purely relational).
	slow := strings.Replace(fleetBenchOutput, "60000000 ns/op", "75000000 ns/op", 1)
	code, out = guard(t, slow, "-baseline", base)
	if code != 1 {
		t.Fatalf("fleet losing to sequential should fail, got %d: %s", code, out)
	}
	if !strings.Contains(out, "FAIL fleet-vs-sequential") {
		t.Errorf("failure should name the fleet rule: %s", out)
	}
	// A loosened allowance (single-core runner: the shapes tie) accepts it.
	if code, out := guard(t, slow, "-baseline", base, "-max-fleet-excess", "0.5"); code != 0 {
		t.Fatalf("loosened fleet allowance should pass: %s", out)
	}
}

func TestEmptyInputIsAnError(t *testing.T) {
	code, out := guard(t, "PASS\nok  \tklotski\t0.1s\n", "-baseline", filepath.Join(t.TempDir(), "b.json"))
	if code != 2 {
		t.Fatalf("no benchmark lines should be an infrastructure error, got %d: %s", code, out)
	}
}
