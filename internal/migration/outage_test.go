package migration_test

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/topo"
)

// outageTask is a four-block HGRID swap on suite A's smallest fabric plus a
// drain block that operates one circuit, so the outage rule sees a drain, an
// undrain and a circuit block. It returns the task and the circuit block.
func outageTask(t *testing.T) (*migration.Task, int) {
	t.Helper()
	s, err := gen.Suite("A", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	task := *s.Task
	task.Blocks = append([]migration.Block(nil), task.Blocks...)
	task.Types = append([]migration.ActionTypeInfo(nil), task.Types...)
	link := spareCircuit(&task)
	ty := task.AddType(migration.ActionTypeInfo{Name: "drain-link", Op: migration.Drain})
	ck := task.AddBlock(migration.Block{Name: "drain-link", Type: ty, Circuits: []topo.CircuitID{link}})
	if err := task.Validate(); err != nil {
		t.Fatal(err)
	}
	return &task, ck
}

// spareSwitch returns the first active switch no block operates, or -1.
func spareSwitch(task *migration.Task) topo.SwitchID {
	for s := range task.Topo.NumSwitches() {
		id := topo.SwitchID(s)
		operated := false
		for _, b := range task.Blocks {
			operated = operated || slices.Contains(b.Switches, id)
		}
		if task.Topo.SwitchActive(id) && !operated {
			return id
		}
	}
	return -1
}

// spareCircuit returns the first active circuit no block operates, or -1.
func spareCircuit(task *migration.Task) topo.CircuitID {
	for c := range task.Topo.NumCircuits() {
		id := topo.CircuitID(c)
		operated := false
		for _, b := range task.Blocks {
			operated = operated || slices.Contains(b.Circuits, id)
		}
		if task.Topo.CircuitActive(id) && !operated {
			return id
		}
	}
	return -1
}

// TestWithOutagesRule holds the one outage rule every replan builds its
// task with: a down element no block operates goes inactive in a copy of
// the topology, one an executed drain took down stays nominally active,
// and any other operated element, switch or circuit, is a conflict naming
// the element and its block.
func TestWithOutagesRule(t *testing.T) {
	task, ck := outageTask(t)
	drainB, undrainB := -1, -1
	for i, b := range task.Blocks {
		if len(b.Switches) == 0 {
			continue
		}
		if task.Types[b.Type].Op == migration.Drain && drainB < 0 {
			drainB = i
		}
		if task.Types[b.Type].Op == migration.Undrain && undrainB < 0 {
			undrainB = i
		}
	}
	spareSw, spareCk := spareSwitch(task), spareCircuit(task)
	if drainB < 0 || undrainB < 0 || spareSw < 0 || spareCk < 0 {
		t.Fatalf("fixture lacks a case: drain %d, undrain %d, spare switch %d, spare circuit %d", drainB, undrainB, spareSw, spareCk)
	}
	drainSw := task.Blocks[drainB].Switches[0]
	undrainSw := task.Blocks[undrainB].Switches[0]
	link := task.Blocks[ck].Circuits[0]

	for _, c := range []struct {
		name     string
		executed []int
		sw       []topo.SwitchID
		ck       []topo.CircuitID
		inactive bool   // the element goes inactive in a copy
		err      string // the conflict's element and block, "" for none
	}{
		{name: "non-operated switch", sw: []topo.SwitchID{spareSw}, inactive: true},
		{name: "non-operated circuit", ck: []topo.CircuitID{spareCk}, inactive: true},
		{name: "switch an executed drain took down", executed: []int{drainB}, sw: []topo.SwitchID{drainSw}},
		{name: "switch an unexecuted block operates", sw: []topo.SwitchID{drainSw},
			err: `switch "` + task.Topo.Switch(drainSw).Name + `" is down but operated by block "` + task.Blocks[drainB].Name + `"`},
		{name: "switch an executed undrain operates", executed: []int{undrainB}, sw: []topo.SwitchID{undrainSw},
			err: `switch "` + task.Topo.Switch(undrainSw).Name + `" is down but operated by block "` + task.Blocks[undrainB].Name + `"`},
		{name: "circuit an unexecuted drain operates", ck: []topo.CircuitID{link},
			err: `is down but operated by block "drain-link"`},
		{name: "circuit an executed drain took down", executed: []int{ck}, ck: []topo.CircuitID{link}},
	} {
		got, err := task.WithOutages(c.executed, c.sw, c.ck)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: error %v, want one naming %s", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !c.inactive {
			if got != task {
				t.Errorf("%s: the task was copied, want it returned as is", c.name)
			}
			continue
		}
		if got.Topo == task.Topo {
			t.Fatalf("%s: the outage changed the task's own topology", c.name)
		}
		for _, s := range c.sw {
			if got.Topo.SwitchActive(s) || !task.Topo.SwitchActive(s) {
				t.Errorf("%s: switch %d active %v in the copy, %v in the original", c.name, s, got.Topo.SwitchActive(s), task.Topo.SwitchActive(s))
			}
		}
		for _, k := range c.ck {
			if got.Topo.CircuitActive(k) || !task.Topo.CircuitActive(k) {
				t.Errorf("%s: circuit %d active %v in the copy, %v in the original", c.name, k, got.Topo.CircuitActive(k), task.Topo.CircuitActive(k))
			}
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: the outage task does not validate: %v", c.name, err)
		}
	}
	if got, err := task.WithOutages(nil, nil, nil); err != nil || got != task {
		t.Errorf("no outage: %p, %v; want the task itself", got, err)
	}
}

// TestValidateAllocatesOnce: validating a suite task, as every planner and
// audit does, allocates one bitset of operated elements and no maps.
func TestValidateAllocatesOnce(t *testing.T) {
	s, err := gen.Suite("A", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := s.Task.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Validate allocates %v times, want at most 1", n)
	}
}

// TestValidateNamesBothBlocks: a switch or circuit operated twice is named
// with the block that operated it first and the block that repeats it.
func TestValidateNamesBothBlocks(t *testing.T) {
	task, ck := outageTask(t)
	sw := task.Blocks[1].Switches[0]
	dupSw := *task
	dupSw.Blocks = append(append([]migration.Block(nil), task.Blocks...), migration.Block{
		Name: "again", Type: task.Blocks[1].Type, Switches: []topo.SwitchID{sw}})
	dupCk := *task
	dupCk.Blocks = append(append([]migration.Block(nil), task.Blocks...), migration.Block{
		Name: "again", Type: task.Blocks[ck].Type, Circuits: task.Blocks[ck].Circuits})
	for _, c := range []struct {
		task *migration.Task
		want string
	}{
		{&dupSw, `migration: switch "` + task.Topo.Switch(sw).Name + `" in both block "` + task.Blocks[1].Name + `" and block "again"`},
		{&dupCk, `migration: circuit ` + strconv.Itoa(int(task.Blocks[ck].Circuits[0])) + ` in both block "drain-link" and block "again"`},
	} {
		if err := c.task.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("Validate = %v, want %s", err, c.want)
		}
	}
}
