//go:build !race

package kylix_test

const raceEnabled = false
