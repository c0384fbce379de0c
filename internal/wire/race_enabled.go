//go:build race

package wire

// raceEnabled reports whether this binary was built with the race
// detector; SliceList.Put then also checks that no slice is put twice.
const raceEnabled = true
