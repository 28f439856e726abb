//go:build race

package graph

// raceEnabled mirrors the race detector's presence for tests whose
// assertions (exact allocation counts) the detector's instrumentation
// perturbs.
const raceEnabled = true
