package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestEstimators(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if floor(xs) != 1 || peak(xs) != 5 || mean(xs) != 3 || median(xs) != 3 {
		t.Fatalf("floor %v peak %v mean %v median %v", floor(xs), peak(xs), mean(xs), median(xs))
	}
	if !math.IsNaN(floor(nil)) || !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("empty input must give NaN, not a number that looks measured")
	}
	if got := percentile([]float64{10, 20, 30, 40}, 0.9); !near(got, 37) {
		t.Fatalf("p90 = %v, want 37", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Fatalf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles(xs)
	if !near(q1, 1.5) || !near(q2, 3) || !near(q3, 4.5) {
		t.Fatalf("quartiles of 1..5 = %v %v %v", q1, q2, q3)
	}
	if got := relSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1) {
		t.Fatalf("relSpread = %v, want (8.25-2.75)/5.5", got)
	}
	byKind := [][]float64{{3, 2, 9}, nil, {7, 5}}
	if got := meanOf(byKind, floor); !near(got, 3.5) {
		t.Fatalf("mean of floors = %v, want (2+5)/2", got)
	}
	if got := pairwiseDiff([]float64{1.0, 1.1, 1.05}); !near(got, 0.1) {
		t.Fatalf("pairwiseDiff = %v", got)
	}
	if pairwiseDiff([]float64{0, 0, 0}) != 0 || pairwiseDiff([]float64{7, 7}) != 0 {
		t.Fatal("equal values must differ by exactly 0")
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100) with two back-to-back children and one nested
	// grandchild; a second root with two overlapping (concurrent) children,
	// one of which outlives its parent.
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "a", Start: 10, End: 40, Parent: 0, Op: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0, Op: 0},
		{Name: "b.inner", Start: 50, End: 60, Parent: 2, Op: 0},
		{Name: "op", Start: 200, End: 300, Parent: -1, Op: 1},
		{Name: "a", Start: 210, End: 260, Parent: 4, Op: 1},
		{Name: "b", Start: 240, End: 320, Parent: 4, Op: 1},
	}
	want := []int64{20, 30, 40, 10, 10, 50, 80}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	if got := coverage(spans); !near(got, 1-30.0/200) {
		t.Errorf("coverage = %v, want 0.85", got)
	}
	by := selfByName(spans)
	// "a": 30 ns in op 0, 50 ns in op 1 → the faster op.
	if !near(by["a"], 30e-9) || !near(by["op"], 10e-9) {
		t.Errorf("selfByName = %v", by)
	}
	var nilTracer *tracer
	id := nilTracer.start("x", -1, 0)
	nilTracer.end(id) // must not panic: the untraced replay runs this path
}

func TestProcParsing(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (klotskid (v2) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 157 43 0 0 20 0 9 0 100 1000 200 18446744073709551615"
	cpu, err := parseProcStatCPU(stat)
	if err != nil || !near(cpu, 2.0) {
		t.Fatalf("cpu = %v, %v; want 2.00 s from utime 157 + stime 43 ticks", cpu, err)
	}
	if _, err := parseProcStatCPU("1 (x) S 1 2"); err == nil {
		t.Fatal("short stat line accepted")
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Fatal("stat line without a command accepted")
	}
	status := "Name:\tklotskid\nVmPeak:\t 1240000 kB\nVmHWM:\t   30876 kB\nVmRSS:\t   20000 kB\n"
	hwm, err := parseVmHWM(status)
	if err != nil || hwm != 30876 {
		t.Fatalf("VmHWM = %v, %v", hwm, err)
	}
	if _, err := parseVmHWM("Name:\tzombie\n"); err == nil {
		t.Fatal("status without VmHWM accepted")
	}
	if _, err := parseVmHWM("VmHWM:\t12 MB\n"); err == nil {
		t.Fatal("VmHWM in an unexpected unit accepted")
	}
}

func memberNames(manifest []byte, t *testing.T) []string {
	var m struct {
		Members []fleetMember `json:"members"`
	}
	if err := json.Unmarshal(manifest, &m); err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(m.Members))
	for i, mem := range m.Members {
		names[i] = mem.Name + "/" + mem.Planner
	}
	return names
}

func TestSeedDeterminism(t *testing.T) {
	// Same seed, same inputs, byte for byte.
	if !bytes.Equal(fleetManifest(7), fleetManifest(7)) {
		t.Error("fleet manifest differs for one seed")
	}
	a, b := chaosSchedule(7, 100), chaosSchedule(7, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("chaos schedule differs for one seed")
		}
	}
	j1, j2 := daemonBatch(7), daemonBatch(7)
	for i := range j1 {
		if j1[i] != j2[i] {
			t.Fatal("daemon batch differs for one seed")
		}
	}

	// Another seed reorders, and only reorders: the work is the same set.
	if bytes.Equal(fleetManifest(7), fleetManifest(8)) {
		t.Error("fleet manifest ignores the seed")
	}
	n7, n8 := memberNames(fleetManifest(7), t), memberNames(fleetManifest(8), t)
	sort.Strings(n7)
	sort.Strings(n8)
	if len(n7) != len(fleetMembers) || !slices.Equal(n7, n8) {
		t.Errorf("fleet membership changed with the seed: %v vs %v", n7, n8)
	}
	c := chaosSchedule(8, 100)
	same := true
	count := make([]int, len(chaosSeeds))
	for i := range c {
		same = same && c[i] == a[i]
		count[c[i]]++
	}
	if same {
		t.Error("chaos schedule ignores the seed")
	}
	for v, n := range count {
		if n != 100/len(chaosSeeds) {
			t.Errorf("chaos seed %d runs %d times of 100, want every seed equally often", chaosSeeds[v], n)
		}
	}
	j8 := daemonBatch(8)
	kinds7, kinds8 := map[daemonJob]int{}, map[daemonJob]int{}
	same = true
	for i := range j8 {
		same = same && j8[i] == j1[i]
		kinds7[j1[i]]++
		kinds8[j8[i]]++
	}
	if same {
		t.Error("daemon batch ignores the seed")
	}
	if len(j8) != daemonBatchJobs || len(kinds8) != 2*len(daemonFabrics) {
		t.Errorf("daemon batch has %d jobs of %d kinds", len(j8), len(kinds8))
	}
	for k, n := range kinds7 {
		if kinds8[k] != n {
			t.Errorf("daemon batch job %v: %d times with one seed, %d with another", k, n, kinds8[k])
		}
	}
}

func TestOpsFor(t *testing.T) {
	w := workload{baseOps: 100, variants: 4}
	for _, c := range []struct{ seconds, override, want int }{
		{25, 0, 100}, {12, 0, 48}, {50, 0, 200}, {1, 0, 4}, {25, 7, 8}, {25, 1, 4},
	} {
		if got := opsFor(w, c.seconds, c.override); got != c.want {
			t.Errorf("opsFor(%d s, override %d) = %d, want %d", c.seconds, c.override, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "op_s_min", Better: "lower", Bound: 0.10}
	parent := []float64{1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02}
	shift := func(f float64) []float64 { return scaled(parent, f) }

	for _, c := range []struct {
		name   string
		change []float64
		m      specMetric
		want   string
	}{
		{"clear gain", shift(0.90), lower, "improved"},
		{"inside the noise", shift(0.995), lower, "unchanged"},
		{"worse by more than the bound", shift(1.15), lower, "regressed"},
		{"worse by less than the bound", shift(1.05), lower, "unchanged"},
		{"too few pairs", shift(0.5)[:9], lower, "unresolved (9 pairs, need 10)"},
		{"higher is better, and it is higher", shift(1.2), specMetric{Better: "higher", Bound: 0.10}, "improved"},
		{"higher is better, and it fell", shift(0.8), specMetric{Better: "higher", Bound: 0.10}, "regressed"},
	} {
		if got := judge(parent, c.change, c.m).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	// A parent whose own runs spread wider than the bound resolves nothing
	// unless the change beats every one of them.
	wide := []float64{1.0, 1.3, 0.8, 1.2, 0.9, 1.1, 1.25, 0.85, 1.0, 1.15}
	if got := judge(wide, scaled(wide, 0.97), lower).verdict; got != "unresolved (parent spread wider than bound)" {
		t.Errorf("wide parent: verdict %q", got)
	}
	// Wins 9 of 10 but the medians are closer than the parent's quartiles.
	nearly := append([]float64(nil), parent...)
	for i := range nearly {
		nearly[i] -= 0.001
	}
	nearly[3] += 0.01
	if got := judge(parent, nearly, lower); got.verdict != "unchanged" || got.wins != 9 {
		t.Errorf("small consistent gain: %+v, want 9 wins and unchanged", got)
	}
}
