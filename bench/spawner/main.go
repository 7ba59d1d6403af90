// Command spawner is the small process through which the benchmark starts
// its cold processes; see package spawn for why it exists.
package main

import (
	"fmt"
	"os"

	"klotski/bench/spawn"
)

func main() {
	if err := spawn.Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spawner:", err)
		os.Exit(1)
	}
}
