// Package readerlib is the reader rule's fixture: each field is read in
// one shape, or only written.
package readerlib

import "encoding/xml"

// Record holds one field per case.
type Record struct {
	Returned    int
	Compared    int
	Addressed   int
	Passed      int
	NeverRead   int
	OnlyInTests int
	Inner       Inner
	Key         Key
	Embedded
	XMLName xml.Name `xml:"record"`
}

// Inner is read through its parent.
type Inner struct{ Depth int }

// Key is read whole, as a map key.
type Key struct{ A, B int }

// Embedded is exempt, and so is what it promotes if read.
type Embedded struct{ Promoted int }

type state struct {
	Product int
	Passed  int
}

// Fill writes every field and reads those the rule counts as read.
func Fill(n int) (int, *int) {
	r := Record{Returned: n, Compared: n, NeverRead: n, Inner: Inner{n}, Key: Key{n, n}}
	seen := map[Key]bool{r.Key: true}
	r.OnlyInTests = n
	r.Passed++
	s := state{Product: 1}
	for i := 0; i < n; i++ {
		s.Product *= 2
	}
	s.Passed = r.Passed
	use(s.Passed, r.Promoted)
	if r.Compared > 0 && seen[Key{}] == (r.Inner == Inner{}) {
		return r.Returned + r.Inner.Depth, &r.Addressed
	}
	return 0, nil
}

func use(...int) {}

// Body is a wire body: its value hook puts both fields on the wire, and
// only Sent is read anywhere else.
type Body struct {
	Sent   int
	Hooked int
}

// AppendGobValue is the value hook's writer.
func (b Body) AppendGobValue(dst []byte) ([]byte, bool) {
	return append(dst, byte(b.Sent), byte(b.Hooked)), true
}

// ReadGobValue is the value hook's reader.
func (b *Body) ReadGobValue(src []byte) bool {
	if b.Sent != 0 || b.Hooked != 0 || len(src) != 2 {
		return false
	}
	b.Sent, b.Hooked = int(src[0]), int(src[1])
	return true
}

// Send reads what a receiver reads.
func Send(b Body) int { return b.Sent }
