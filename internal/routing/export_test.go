package routing

import (
	"klotski/internal/demand"
	"klotski/internal/topo"
)

// SetCheckHook installs f as checkHook for the external tests; nil removes it.
func SetCheckHook(f func(e *Evaluator, v *topo.View, ds *demand.Set, opts CheckOpts, viol Violation)) {
	checkHook = f
}
