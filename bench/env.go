package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"klotski/bench/spawn"
)

// spec is what the harness reads of BENCHMARK.json, the one place metric
// names, units, bounds and the run length are declared; it reads them from
// there so the two cannot drift apart.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWork   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// env is where one benchmark process finds the repository, its binaries
// and its scratch space. Everything it writes goes under out.
type env struct {
	root string // checkout root: holds BENCHMARK.json and cmd/
	out  string // bench/out, ignored by git
	spec spec

	klotski, klotskid, topogen string
	refwork                    string // the reference process; see ref.go

	sp *spawn.Client // starts the cold processes

	expected expected
}

// expected holds the pinned reference outputs of bench/expected.json.
type expected struct {
	// Fabrics maps suite name → planner → the plan every op must produce.
	Fabrics map[string]map[string]expectedPlan `json:"fabrics"`
}

type expectedPlan struct {
	Cost    float64 `json:"cost"`
	Actions int     `json:"actions"`
	Gap     float64 `json:"gap"`
}

// findRoot walks up from the working directory to the checkout root. The
// benchmark is started either there or in bench/ (go run -C bench).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "BENCHMARK.json")) && isFile(filepath.Join(dir, "cmd", "klotski", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (BENCHMARK.json beside cmd/klotski) above the working directory")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// newEnv locates the checkout, loads the declarations, builds the three
// binaries under test and the benchmark's two helper processes from source,
// and starts the spawner. Building is not part of any metric.
func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, out: filepath.Join(root, "bench", "out")}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &e.spec); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(root, "bench", "expected.json"), &e.expected); err != nil {
		return nil, err
	}
	bin := filepath.Join(e.out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{
		{root, []string{"./cmd/klotski", "./cmd/klotskid", "./cmd/topogen"}},
		{filepath.Join(root, "bench"), []string{"./refwork", "./spawner"}},
	} {
		build := exec.CommandContext(ctx, "go", append([]string{"build", "-o", bin + string(filepath.Separator)}, b.pkgs...)...)
		build.Dir = b.dir
		if outb, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building %v: %w\n%s", b.pkgs, err, outb)
		}
	}
	e.klotski = filepath.Join(bin, "klotski")
	e.klotskid = filepath.Join(bin, "klotskid")
	e.topogen = filepath.Join(bin, "topogen")
	e.refwork = filepath.Join(bin, "refwork")
	e.sp, err = spawn.Start(filepath.Join(bin, "spawner"))
	if err != nil {
		return nil, fmt.Errorf("starting the spawner: %w", err)
	}
	return e, nil
}

// close stops the spawner.
func (e *env) close() { e.sp.Close() }

// workDir returns a fresh, empty directory under out for one workload run.
func (e *env) workDir(name string) (string, error) {
	dir := filepath.Join(e.out, "work", name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func (e *env) endToEnd(name string) (specMetric, bool) {
	for _, m := range e.spec.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}
