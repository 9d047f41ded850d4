//go:build race

package solve

// raceEnabled reports a -race build, whose instrumentation slows the
// solver far past any wall-clock bound a test states.
const raceEnabled = true
