package readerlib

import "testing"

func TestOnlyHere(t *testing.T) {
	r := Record{OnlyInTests: 1}
	if r.OnlyInTests != 1 || r.NeverRead != 0 {
		t.Fail()
	}
}
