package core

import (
	"math/rand"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/topo"
)

// multiDCBridgeTask is bridgeTask with every bridge switch scattered
// across nDC datacenters (src/dst stay regional, DC -1), so the packed
// occupancy masks span several budget slots including the regional one.
func multiDCBridgeTask(t testing.TB, rng *rand.Rand, nOld, nNew, nDC int) *migration.Task {
	t.Helper()
	tp := topo.New("multidc")
	src := tp.AddSwitch(topo.Switch{Name: "src", Role: topo.RoleRSW, DC: -1})
	dst := tp.AddSwitch(topo.Switch{Name: "dst", Role: topo.RoleEBB, DC: -1})
	task := &migration.Task{Name: "multidc", Topo: tp}
	d := task.AddType(migration.ActionTypeInfo{Name: "drain-old", Op: migration.Drain, Role: topo.RoleFADU})
	u := task.AddType(migration.ActionTypeInfo{Name: "undrain-new", Op: migration.Undrain, Role: topo.RoleFADU})
	for i := 0; i < nOld; i++ {
		s := tp.AddSwitch(topo.Switch{Name: "old" + string(rune('a'+i)), Role: topo.RoleFADU,
			Generation: 1, DC: rng.Intn(nDC)})
		tp.AddCircuit(src, s, 1)
		tp.AddCircuit(s, dst, 1)
		task.AddBlock(migration.Block{Type: d, Switches: []topo.SwitchID{s}})
	}
	for i := 0; i < nNew; i++ {
		s := tp.AddSwitch(topo.Switch{Name: "new" + string(rune('a'+i)), Role: topo.RoleFADU,
			Generation: 2, DC: rng.Intn(nDC)})
		tp.SetSwitchActive(s, false)
		tp.AddCircuit(src, s, 1)
		tp.AddCircuit(s, dst, 1)
		task.AddBlock(migration.Block{Type: u, Switches: []topo.SwitchID{s}})
	}
	task.Demands.Add(demand.Demand{Name: "d", Src: src, Dst: dst, Rate: 0.5})
	return task
}

// occupancyDense is the reference occupancy count, sharing nothing with the
// packed check: per datacenter slot (DC+1, slot 0 the regional pseudo-DC),
// start from the base topology's active switches and replay every applied
// block — a drained switch frees its slot, an undrained one takes it.
func occupancyDense(task *migration.Task, v []uint16) []int32 {
	t := task.Topo
	maxDC := -1
	for i := 0; i < t.NumSwitches(); i++ {
		if dc := t.Switch(topo.SwitchID(i)).DC; dc > maxDC {
			maxDC = dc
		}
	}
	occ := make([]int32, maxDC+2)
	for i := 0; i < t.NumSwitches(); i++ {
		if s := t.Switch(topo.SwitchID(i)); t.SwitchActive(s.ID) {
			occ[s.DC+1]++
		}
	}
	for ty := range v {
		sign := int32(1)
		if task.Types[ty].Op == migration.Drain {
			sign = -1
		}
		for _, id := range task.BlocksOfType(migration.ActionType(ty))[:v[ty]] {
			for _, sw := range task.Blocks[id].Switches {
				occ[t.Switch(sw).DC+1] += sign
			}
		}
	}
	return occ
}

// FuzzOccupancyBitset cross-checks the two packed scratch structures
// against their dense references on randomized fabrics:
//
//   - the packed active-switch occupancy (lane.occupancyOK, one popcount
//     per budgeted DC over the incrementally maintained bitset) against
//     the dense per-DC recount (occupancyDense), both as the final verdict
//     and as exact per-DC counts, across a random walk of vectors through
//     buildView;
//   - the 2-bit packed feasTable (16 verdicts per word) against a dense
//     map model across random get/set sequences over a growing table.
func FuzzOccupancyBitset(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(20260808), uint8(0))
	f.Add(int64(-7), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, budgetBits uint8) {
		rng := rand.New(rand.NewSource(seed))
		nDC := 1 + rng.Intn(3)
		task := multiDCBridgeTask(t, rng, 2+rng.Intn(4), 2+rng.Intn(4), nDC)

		// Budget a random subset of DCs (bit i of budgetBits constrains DC
		// i; bit 7 constrains the regional pseudo-DC) with random caps, so
		// both tight and slack budgets appear.
		nSw := task.Topo.NumSwitches()
		bud := map[int]int{}
		for dc := 0; dc < nDC; dc++ {
			if budgetBits&(1<<uint(dc)) != 0 {
				bud[dc] = 1 + rng.Intn(nSw)
			}
		}
		if budgetBits&(1<<7) != 0 {
			bud[-1] = 1 + rng.Intn(nSw)
		}
		if len(bud) == 0 {
			bud[0] = 1 + rng.Intn(nSw)
		}
		sp, err := newSpace(task, Options{SpaceBudget: bud})
		if err != nil {
			t.Fatalf("newSpace: %v", err)
		}
		ln := sp.ln
		if ln.act == nil {
			t.Fatal("a space budget must give the lane its packed activity bitset")
		}

		populated := map[int]bool{}
		for i := 0; i < nSw; i++ {
			populated[task.Topo.Switch(topo.SwitchID(i)).DC] = true
		}
		vec := make([]uint16, sp.nTypes)
		for step := 0; step < 150; step++ {
			ty := rng.Intn(sp.nTypes)
			if rng.Intn(2) == 0 && vec[ty] < sp.totals[ty] {
				vec[ty]++
			} else if vec[ty] > 0 {
				vec[ty]--
			}
			ln.buildView(vec)

			// Exact per-DC counts and the verdict they imply. occCheck
			// entries are in ascending DC order over the budgeted DCs that
			// hold a switch (an empty DC cannot exceed a budget).
			occ := occupancyDense(task, vec)
			dense := true
			entry := 0
			for dc := -1; dc < nDC; dc++ {
				b, ok := bud[dc]
				if !ok || !populated[dc] {
					continue
				}
				if occ[dc+1] > int32(b) {
					dense = false
				}
				e := &sp.occCheck[entry]
				entry++
				if e.budget != int32(b) {
					t.Fatalf("occCheck[%d] budget %d != DC %d budget %d", entry-1, e.budget, dc, b)
				}
				if got, want := int32(ln.act.CountAnd(e.mask)), occ[dc+1]; got != want {
					t.Fatalf("step %d vec %v DC %d: packed count %d != dense %d",
						step, vec, dc, got, want)
				}
			}
			if entry != len(sp.occCheck) {
				t.Fatalf("%d occCheck entries for %d budgeted DCs", len(sp.occCheck), entry)
			}
			if packed := ln.occupancyOK(); packed != dense {
				t.Fatalf("step %d vec %v: packed verdict %v != dense %v", step, vec, packed, dense)
			}
		}

		// Packed 2-bit feasibility table vs a dense model. Indices arrive
		// out of order, so reads beyond the grown prefix, growth by more
		// than one word and neighbours sharing a word are all exercised.
		ft := &feasTable{}
		model := map[int32]int8{}
		maxIdx := int32(3 * chunkSize)
		for op := 0; op < 400; op++ {
			idx := rng.Int31n(maxIdx)
			if rng.Intn(2) == 0 {
				if got, want := ft.get(idx), model[idx]; got != want {
					t.Fatalf("op %d: get(%d) = %d, model %d", op, idx, got, want)
				}
				continue
			}
			v := []int8{0, feasYes, feasNo}[rng.Intn(3)] // 0 forgets a verdict
			ft.set(idx, v)
			model[idx] = v
		}
		for idx := int32(0); idx < maxIdx; idx++ {
			if got, want := ft.get(idx), model[idx]; got != want {
				t.Fatalf("final sweep: get(%d) = %d, model %d", idx, got, want)
			}
		}
	})
}
