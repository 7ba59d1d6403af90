package migration

import (
	"fmt"
	"sort"
	"strings"

	"klotski/internal/topo"
)

// Symmetry detection (paper §4.1).
//
// Following Janus, switches are equivalent when they connect to the same
// hosts and have the same routing table; equivalent switches form a
// symmetry block, and the operation order of equivalent switches affects
// neither cost nor constraints. Klotski's observation is that production
// DCNs have little strict symmetry (blocks of at most two switches), which
// is why operation blocks merge symmetry blocks by locality.

// StrictSymmetryBlocks partitions the given switches into symmetry blocks
// under the strict Janus-style definition: two switches are equivalent iff
// they share role, generation, and the exact multiset of
// (neighbor, circuit capacity) pairs. Blocks are returned in a
// deterministic order (by smallest member ID), members sorted by ID.
func StrictSymmetryBlocks(t *topo.Topology, switches []topo.SwitchID) [][]topo.SwitchID {
	groups := make(map[string][]topo.SwitchID)
	for _, id := range switches {
		sig := strictSignature(t, id)
		groups[sig] = append(groups[sig], id)
	}
	return sortedBlocks(groups)
}

func strictSignature(t *topo.Topology, id topo.SwitchID) string {
	s := t.Switch(id)
	parts := make([]string, 0, len(s.Circuits())+1)
	for _, cid := range s.Circuits() {
		c := t.Circuit(cid)
		parts = append(parts, fmt.Sprintf("%d@%g", c.Other(id), c.Capacity))
	}
	sort.Strings(parts)
	return fmt.Sprintf("%s/g%d|%s", s.Role, s.Generation, strings.Join(parts, ","))
}

func sortedBlocks(groups map[string][]topo.SwitchID) [][]topo.SwitchID {
	blocks := make([][]topo.SwitchID, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		blocks = append(blocks, g)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i][0] < blocks[j][0] })
	return blocks
}

// MaxSymmetryBlockSize returns the size of the largest strict symmetry
// block among the task's operated switches — the paper reports this is at
// most two for Meta's real migration types, motivating operation blocks.
func MaxSymmetryBlockSize(t *Task) int {
	var ops []topo.SwitchID
	for i := range t.Blocks {
		ops = append(ops, t.Blocks[i].Switches...)
	}
	max := 0
	for _, b := range StrictSymmetryBlocks(t.Topo, ops) {
		if len(b) > max {
			max = len(b)
		}
	}
	return max
}
