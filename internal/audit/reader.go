package audit

import "wym/internal/durable"

// ScanStats summarizes one Scan pass.
type ScanStats = durable.ScanStats

// Scan reads every decodable record in dir, oldest segment first,
// calling fn per record. It is the tolerant reader: each segment is
// recovered to its longest valid prefix — a bad magic, torn tail,
// bit-flipped or undecodable frame, or sequence gap never fails the
// scan, it just bounds what that segment contributes (and bumps
// Truncated). A non-nil error from fn aborts the scan and is returned;
// IO errors reading the directory are returned as-is.
func Scan(dir string, fn func(Record) error) (ScanStats, error) {
	return durable.Scan(dir, &format, decode, fn)
}

// ReadAll scans dir and returns every decodable record in append order
// — the convenience form for CLIs and tests; large logs should Scan.
func ReadAll(dir string) ([]Record, ScanStats, error) {
	var out []Record
	stats, err := Scan(dir, func(rec Record) error {
		out = append(out, rec)
		return nil
	})
	return out, stats, err
}
