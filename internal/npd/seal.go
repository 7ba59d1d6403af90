package npd

import "klotski/internal/durable"

// SealValue marshals v to JSON and seals it under format.
//
// Deprecated: the sealed envelope lives in internal/durable; use
// durable.SealValue.
func SealValue(format string, v any) ([]byte, error) {
	return durable.SealValue(format, v)
}
