package reachlib

import "testing"

func TestDisk(t *testing.T) {
	d := &Disk{}
	d.Corrupt()
	if err := d.Put("k"); err != nil || OnlyTests() != 1 {
		t.Fatal(err)
	}
}
