// Mid-migration replanning (paper §7.1–7.2): the events that force a
// months-long migration to change course, end to end.
//
//  1. Demand growth: plan with a traffic forecast so that each step is
//     checked against the demand expected *when it executes*.
//  2. Traffic surge: a service changes behaviour mid-migration (the
//     paper's warm-storage incident); the remaining steps are re-planned
//     against the new demand.
//  3. Out-of-band outage: routine maintenance not controlled by Klotski
//     takes a switch down; the remainder is re-planned on the real
//     topology.
//
// Run with: go run ./examples/replan [-scale 0.2]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"klotski"
)

func main() {
	scale := flag.Float64("scale", 0.2, "topology scale")
	flag.Parse()

	scenario, err := klotski.Suite("C", *scale)
	if err != nil {
		log.Fatal(err)
	}
	task := scenario.Task
	fmt.Printf("%s — %d actions\n\n", scenario.Description, task.NumActions())

	// 1. Forecast-integrated planning through the pipeline: the task
	//    carries the growth model, so every state is planned and audited at
	//    the demand forecast for when it is reached.
	fmt.Println("1. planning under a demand forecast (+0.5% per step):")
	grown := task.WithForecast(klotski.Forecast{GrowthPerStep: 0.005})
	res, err := klotski.RunPipelineTask(grown, klotski.PipelineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   plan cost %.0f in %d runs, audited under the forecast\n\n",
		res.Plan.Cost, len(res.Plan.Runs))

	// 2. Surge mid-migration: execute the first two runs, then a surge
	//    hits and the remainder is re-planned.
	base, err := klotski.PlanAStar(task, klotski.Options{})
	if err != nil {
		log.Fatal(err)
	}
	executed := []int{}
	for _, run := range base.Runs[:2] {
		executed = append(executed, run.Blocks...)
	}
	surged := (klotski.Surge{Fraction: 0.5, Multiplier: 1.15}).
		Apply(task.Demands, rand.New(rand.NewSource(7)))
	fmt.Printf("2. surge after %d executed actions (half the demands ×1.15):\n", len(executed))
	re, err := klotski.ReplanMigration(task, executed, &surged, klotski.PipelineConfig{})
	if err != nil {
		fmt.Printf("   remainder unplannable under surge: %v\n\n", err)
	} else {
		fmt.Printf("   original remainder cost %.0f → replanned cost %.0f under surge\n\n",
			base.Cost-klotski.SequenceCost(task, executed, 0, klotski.NoLast), re.Cost)
	}

	// 3. Out-of-band outage: a fabric switch is taken down by maintenance.
	var victim klotski.SwitchID = -1
	operated := map[klotski.SwitchID]bool{}
	for _, b := range task.Blocks {
		for _, sw := range b.Switches {
			operated[sw] = true
		}
	}
	for i := 0; i < task.Topo.NumSwitches(); i++ {
		sw := task.Topo.Switch(klotski.SwitchID(i))
		if sw.Role == klotski.RoleFSW && !operated[sw.ID] {
			victim = sw.ID
			break
		}
	}
	fmt.Printf("3. maintenance takes %s down mid-migration:\n", task.Topo.Switch(victim).Name)
	re2, err := klotski.ReplanAfterOutage(task, executed, []klotski.SwitchID{victim}, klotski.PipelineConfig{})
	if err != nil {
		fmt.Printf("   remainder unplannable around the outage: %v\n", err)
		return
	}
	fmt.Printf("   replanned remainder: cost %.0f in %d runs (%d actions left)\n",
		re2.Cost, len(re2.Runs), len(re2.Sequence))
}
