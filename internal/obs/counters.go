package obs

import "sort"

// Counter is one pass-specific counter of an Event. Name is the field
// path inside the pass's Stats struct ("Merges",
// "Interference.KillQueries"); trace sinks render it under the pass as
// "<pass>.<Name>". Pass Stats types list their counters explicitly, in
// a fixed order, through an AppendCounters method, so flattening a
// pass's statistics costs one slice and no reflection.
type Counter struct {
	Name  string
	Value int64
}

// SortedKeys returns the keys of a counter map in sorted order. Every
// human- or machine-readable emission of a counter map (the ssabench
// -trace-counters dump) ranges over this instead of the map directly,
// so repeated runs produce byte-identical output regardless of map
// iteration order.
func SortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
