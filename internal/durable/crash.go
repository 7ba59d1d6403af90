package durable

// Crash-surface helpers for durability testing. A Log is a newline-framed
// record stream (the KJ1 envelope), so a process killed mid-append leaves
// either a clean prefix of records or a clean prefix plus one torn line.
// These helpers enumerate and manufacture exactly those on-disk states —
// plus outright corruption — so recovery tests can replay a kill at every
// record boundary, a tear at every byte of the final record, and a flipped
// bit anywhere, without actually racing a SIGKILL against the file system.

// RecordBoundaries returns every prefix length of data that ends exactly
// on a record boundary: 0 (nothing durable yet) and the offset after
// each newline. Truncating a journal to any returned length simulates a
// crash between two appends; truncating anywhere else simulates a crash
// mid-append (a torn tail).
func RecordBoundaries(data []byte) []int64 {
	bounds := []int64{0}
	for i, b := range data {
		if b == '\n' {
			bounds = append(bounds, int64(i+1))
		}
	}
	return bounds
}

// Tear returns a copy of data truncated to n bytes — the journal a crash
// at that write offset leaves behind. n past the end returns the whole
// journal.
func Tear(data []byte, n int64) []byte {
	if n > int64(len(data)) {
		n = int64(len(data))
	}
	return append([]byte(nil), data[:n]...)
}

// FlipByte returns a copy of data with the byte at off inverted —
// bit rot or a misdirected write, the damage checksummed records must
// detect rather than trust.
func FlipByte(data []byte, off int64) []byte {
	out := append([]byte(nil), data...)
	if off >= 0 && off < int64(len(out)) {
		out[off] ^= 0xFF
	}
	return out
}
