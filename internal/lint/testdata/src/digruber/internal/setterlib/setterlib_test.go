package setterlib

import "testing"

func TestOnlyHere(t *testing.T) {
	c := Config{OnlyInTests: 1}
	c.NeverSet = c.OnlyInTests
	_ = c
}
