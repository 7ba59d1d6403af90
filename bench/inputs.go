package main

import "math/rand"

// Every fabric is a Table-3 suite topology at this scale. The seed never
// changes a fabric, so the plans pinned in expected.json hold for any seed.
const suiteScale = "0.25"

// defaultSeed is used when -seed is not given.
const defaultSeed = 20230910

// chaosSeeds is the pinned pool of chaos-campaign base seeds replan-chaos
// draws its ops from. A campaign's work depends strongly on its seed (5 to
// 14 replans, 0.17 to 0.37 s on E-SSW×0.25) and some seeds leave a run
// incomplete, so the benchmark seed does not pick the chaos seed: every run
// executes each pooled seed equally often and the benchmark seed only
// orders them. All four complete 100% of their runs.
var chaosSeeds = []int64{3, 5, 7, 13}

// chaosSchedule returns, for each of ops ops, the index into chaosSeeds it
// runs: every index equally often (ops is a multiple of the pool size), in
// an order drawn from seed.
func chaosSchedule(seed int64, ops int) []int {
	s := make([]int, ops)
	for i := range s {
		s[i] = i % len(chaosSeeds)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return s
}

// fleetMember is one row of the klotski -fleet manifest.
type fleetMember struct {
	Name     string `json:"name"`
	NPD      string `json:"npd"`
	Planner  string `json:"planner"`
	Priority int    `json:"priority,omitempty"`
	MinShare int    `json:"min_share,omitempty"`
}

// fleetMembers is the fixed membership of fleet-mixed: six fabrics,
// planners alternating, one member that may preempt and one with a
// reserved worker.
var fleetMembers = []fleetMember{
	{Name: "A", NPD: "A.json", Planner: "astar"},
	{Name: "B", NPD: "B.json", Planner: "dp", Priority: 1},
	{Name: "C", NPD: "C.json", Planner: "astar"},
	{Name: "D", NPD: "D.json", Planner: "dp", MinShare: 1},
	{Name: "E-DMAG", NPD: "E-DMAG.json", Planner: "astar"},
	{Name: "E-SSW", NPD: "E-SSW.json", Planner: "dp"},
}

// fleetManifest renders the manifest with the members in an order drawn
// from seed; the order decides which members are admitted to the pool
// first.
func fleetManifest(seed int64) []byte {
	members := append([]fleetMember(nil), fleetMembers...)
	rand.New(rand.NewSource(seed)).Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return append(marshalIndent(struct {
		Members []fleetMember `json:"members"`
	}{members}), '\n')
}

// daemonJob is one submission of a daemon-burst batch.
type daemonJob struct {
	Fabric  string
	Planner string
}

// daemonFabrics are the small fabrics daemon-burst submits: planning one
// takes about a millisecond, so the service around the planner is what the
// op pays for.
var daemonFabrics = []string{"A", "B", "C", "D"}

// daemonBatchJobs is the size of one op: each fabric with each planner,
// three times over.
const daemonBatchJobs = 24

// daemonBatch returns the jobs of one op in an order drawn from seed.
// Every op of a run submits this same list, so ops stay identical.
func daemonBatch(seed int64) []daemonJob {
	jobs := make([]daemonJob, 0, daemonBatchJobs)
	for len(jobs) < daemonBatchJobs {
		for _, planner := range []string{"astar", "dp"} {
			for _, f := range daemonFabrics {
				jobs = append(jobs, daemonJob{Fabric: f, Planner: planner})
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}
