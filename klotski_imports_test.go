package klotski_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestOnlyTheDaemonLinksTheNetwork holds the binaries to their layout:
// klotskid is the one long-lived process and the one that serves HTTP, so
// no other main package of the module may link package net, and neither
// may internal/obs, which every planner package imports. A short-lived
// process that links net also carries the network stack and cgo, and runs
// dynamically linked. The walk is the non-test import graph that go list
// reports; a failure names the chain of imports that reaches net.
func TestOnlyTheDaemonLinksTheNetwork(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f",
		"{{.ImportPath}} {{.Name}} {{.DepOnly}}{{range .Imports}} {{.}}{{end}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imports := make(map[string][]string)
	var roots []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		path, name, depOnly := f[0], f[1], f[2] == "true"
		imports[path] = f[3:]
		if !depOnly && (name == "main" && path != "klotski/cmd/klotskid" || path == "klotski/internal/obs") {
			roots = append(roots, path)
		}
	}
	if len(roots) < 4 {
		t.Fatalf("walked %d roots %v, want every main package but klotskid and internal/obs", len(roots), roots)
	}
	for _, root := range roots {
		// Breadth first, so the chain reported is a shortest one.
		from := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			if p == "net" {
				chain := []string{p}
				for q := from[p]; q != ""; q = from[q] {
					chain = append([]string{q}, chain...)
				}
				t.Errorf("%s links net: %s", root, strings.Join(chain, " → "))
				break
			}
			for _, q := range imports[p] {
				if _, seen := from[q]; !seen {
					from[q] = p
					queue = append(queue, q)
				}
			}
		}
	}
}
