// Package simlib is a wallclock fixture: a library package that must
// take a vtime.Clock instead of reading real time.
package simlib

import (
	"time"

	"digruber/internal/vtime"
)

// Epoch construction is legal: time.Date does not observe real time.
var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func bad() {
	now := time.Now() // want `time\.Now reads the wall clock`
	_ = now
	time.Sleep(time.Second)      // want `time\.Sleep reads the wall clock`
	<-time.After(time.Second)    // want `time\.After reads the wall clock`
	<-time.Tick(time.Second)     // want `time\.Tick reads the wall clock`
	_ = time.Since(epoch)        // want `time\.Since reads the wall clock`
	_ = time.NewTimer(1)         // want `time\.NewTimer reads the wall clock`
	_ = time.NewTicker(1)        // want `time\.NewTicker reads the wall clock`
	time.AfterFunc(1, func() {}) // want `time\.AfterFunc reads the wall clock`
}

func good(clock vtime.Clock) time.Time {
	clock.Sleep(30 * time.Second)
	return clock.Now()
}

// shadow declares a local variable named time; selector uses of it are
// not the time package.
func shadow() {
	type fake struct{ Now func() int }
	time := fake{Now: func() int { return 1 }}
	_ = time.Now()
}
