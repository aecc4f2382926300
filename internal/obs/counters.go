package obs

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
