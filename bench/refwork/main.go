// Command refwork is the benchmark's reference process: a fixed piece of
// Go-flavoured work that the harness times beside every op to judge how
// fast the host is running (see ../ref.go). It imports nothing from the
// repository, so no change to the program under test can move it.
package main

import "os"

// nodes sizes the work: with 24 000 nodes the process uses about 10 ms of
// CPU on an undisturbed host, start-up and exit included.
const nodes = 24000

type node struct {
	adj  []int32
	dist float64
}

func main() {
	// xorshift: the same graph every time.
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Allocate a random 4-regular graph node by node, edge by edge, as
	// planner state is allocated, then walk it breadth first with a map
	// and a growing queue.
	graph := make([]*node, nodes)
	for i := range graph {
		graph[i] = &node{}
	}
	for _, n := range graph {
		for k := 0; k < 4; k++ {
			n.adj = append(n.adj, int32(next()%nodes))
		}
	}
	seen := map[int32]float64{0: 0}
	queue := []int32{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range graph[u].adj {
			if _, ok := seen[v]; !ok {
				seen[v] = seen[u] + 1
				graph[v].dist = seen[v]
				queue = append(queue, v)
			}
		}
	}
	// Nearly every node of a random 4-regular graph is reachable; the
	// check keeps the compiler from dropping the walk.
	if len(seen) < nodes/2 {
		os.Exit(1)
	}
}
