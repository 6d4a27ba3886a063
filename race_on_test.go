//go:build race

package kylix_test

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = true
