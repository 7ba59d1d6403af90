package main

import "time"

// The host this benchmark runs on changes speed under it: on a 2-vCPU
// guest with noisy neighbours the same op is 10 to 50% slower for minutes
// at a time, its CPU time with it, and no statistic of raw seconds, the
// minimum included, stays within a tenth across such a stretch (README,
// noise study). What does hold still is the ratio between an op and a fixed
// piece of work of the same kind timed beside it. The reference process
// (refwork/) is that fixed work: a cold Go process that allocates a graph
// and walks it. The harness runs one through the spawner, as it runs the
// ops, before every op, and a run's gated timings are divided by how much
// slower than nominal the references ran during that same run.
//
// The reference imports nothing from the repository, so a change to klotski
// cannot move it. It is a process, not a loop inside the harness, because
// what the neighbours slow down most is what a cold process leans on most:
// fresh pages, a cold heap, memory that is not in the core's own cache. A
// loop over a table inside the harness felt them either far less or far
// more than the ops did.

// refNominal is the lower-quartile CPU time of a reference process on an
// undisturbed host of the class the benchmark was written on. It only fixes
// the scale of the corrected seconds: on such a host corrected and raw agree.
const refNominal = 10 * time.Millisecond

// reference runs the reference process once and returns its user+sys CPU
// time in seconds.
func (e *env) reference(dir string) (float64, error) {
	st, _, err := e.sp.Run(dir, e.refwork)
	return st.CPU, err
}

// hostFactor is how much slower than nominal the host ran during a run,
// judged by the lower quartile of the run's reference processes.
func hostFactor(refs []float64) float64 {
	return lowerQuartile(refs) / refNominal.Seconds()
}
