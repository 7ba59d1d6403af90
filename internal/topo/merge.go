package topo

// Merge combines two topology universes into one, prefixing switch names
// to keep them unique and preserving base activity. It returns the merged
// topology plus the ID offsets of b's switches and circuits (a's IDs are
// unchanged): b's switch s becomes SwitchID(int32(s) + swOffset), and
// likewise for circuits.
//
// Merging is how multi-region migrations are planned jointly (paper §2.2,
// "Consider multiple DCs": draining circuits in one datacenter strands
// the capacity of their peers in another, so independent per-region plans
// can be mutually unsafe).
func Merge(name, prefixA string, a *Topology, prefixB string, b *Topology) (*Topology, SwitchID, CircuitID) {
	m := New(name)
	copyInto := func(prefix string, src *Topology) {
		for i := 0; i < src.NumSwitches(); i++ {
			s := *src.Switch(SwitchID(i))
			s.Name = prefix + s.Name
			id := m.AddSwitch(s)
			m.SetSwitchActive(id, src.SwitchActive(SwitchID(i)))
		}
	}
	copyCircuits := func(src *Topology, swOffset SwitchID) {
		for i := 0; i < src.NumCircuits(); i++ {
			c := src.Circuit(CircuitID(i))
			id := m.AddCircuit(c.A+swOffset, c.B+swOffset, c.Capacity)
			m.SetMetric(id, c.Metric)
			m.SetCircuitActive(id, src.CircuitActive(CircuitID(i)))
		}
	}
	copyInto(prefixA, a)
	swOffset := SwitchID(a.NumSwitches())
	copyInto(prefixB, b)
	copyCircuits(a, 0)
	ckOffset := CircuitID(a.NumCircuits())
	copyCircuits(b, swOffset)
	return m, swOffset, ckOffset
}
