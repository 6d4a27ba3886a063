//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = true
