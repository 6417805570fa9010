//go:build race

package main

// raceEnabled: timing assertions are skipped under the race detector,
// whose instrumentation slows the layers unevenly.
const raceEnabled = true
