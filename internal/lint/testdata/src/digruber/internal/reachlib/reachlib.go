// Package reachlib is the fixture of the test-only reach check
// (testonly_test.go reads it; no analyzer does).
package reachlib

// Store is what Save is written against.
type Store interface {
	Put(key string) error
}

// Disk is the one Store.
type Disk struct {
	fail    bool
	corrupt bool
	keys    []string
}

// Put is named by the test and reached by production only through
// Store: not test-only.
func (d *Disk) Put(key string) error {
	d.keys = append(d.keys, key)
	return nil
}

// FailNext is on the fixture's allow-list, and Save has started to
// call it: the entry must go.
func (d *Disk) FailNext() { d.fail = true }

// Corrupt is on the allow-list and only the test calls it: allowed.
func (d *Disk) Corrupt() { d.corrupt = true }

// Save is production code.
func Save(s Store, d *Disk, key string) error {
	d.FailNext()
	return s.Put(key)
}

// OnlyTests has no caller outside reachlib_test.go: reported.
func OnlyTests() int { return 1 }
