package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeAll is the WAL decoder's robustness contract: any byte
// image — truncated, bit-flipped, or pure garbage — decodes without
// panicking to a valid prefix plus a truncation verdict. The invariants
// checked per input:
//
//  1. ValidBytes never exceeds the input.
//  2. Re-framing the surfaced records reproduces data[:ValidBytes]
//     exactly — nothing surfaced was corrupt.
//  3. Decoding the valid prefix alone is clean (no truncation) and
//     yields the same records — truncate-and-retry converges.
//  4. A clean image extended by garbage still yields all its records.
//  5. A clean image extended by 1, 8 and 4096 zero bytes decodes to the
//     same records, clean, with the same ValidBytes — preallocated
//     space is not part of the log, however much of it there is.
//  6. No surfaced record is empty: an empty record's header is the end
//     mark.
//
// The checked-in seed corpus (testdata/fuzz/FuzzDecodeAll) covers the
// empty image, single and multi-record images, each torn-tail flavor,
// a checksum flip, an oversized length, a zero tail, a zero tail with
// one non-zero byte in it and a batch whose second page reached the
// disk without its first, so a plain `go test` run exercises every
// decoder branch even without -fuzz.
func FuzzDecodeAll(f *testing.F) {
	one := appendRecord(nil, []byte("hello"))
	two := appendRecord(one, []byte("world, longer record payload"))
	f.Add([]byte{})
	f.Add(one)
	f.Add(two)
	f.Add(two[:len(two)-3])            // torn payload
	f.Add(two[:len(one)+4])            // torn header
	f.Add([]byte("garbage no header")) // no valid frame at all
	flipped := append([]byte(nil), two...)
	flipped[headerSize+1] ^= 0x10 // checksum mismatch on record 0
	f.Add(flipped)
	huge := append([]byte(nil), two...)
	huge[3] = 0xFF // length field far above maxRecordLen
	f.Add(huge)
	zeroTail := append(append([]byte(nil), two...), make([]byte, 100)...)
	f.Add(zeroTail) // preallocated space after the log
	dirtyTail := append([]byte(nil), zeroTail...)
	dirtyTail[len(two)+50] = 1 // something in the space that should be empty
	f.Add(dirtyTail)
	f.Add(append(append(append([]byte(nil), one...), make([]byte, 64)...), two[len(one):]...)) // second page of a torn batch

	f.Fuzz(func(t *testing.T, data []byte) {
		d := DecodeAll(data)
		if d.ValidBytes < 0 || d.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d out of range for %d input bytes", d.ValidBytes, len(data))
		}
		if d.Truncated == (d.Reason == "") {
			t.Fatalf("Truncated=%v with Reason=%q", d.Truncated, d.Reason)
		}
		reframed := []byte{}
		for i, r := range d.Records {
			if len(r) == 0 {
				t.Fatalf("record %d is empty", i)
			}
			reframed = appendRecord(reframed, r)
		}
		if !bytes.Equal(reframed, data[:d.ValidBytes]) {
			t.Fatalf("surfaced records do not re-frame to the valid prefix")
		}
		again := DecodeAll(data[:d.ValidBytes])
		if again.Truncated || len(again.Records) != len(d.Records) {
			t.Fatalf("valid prefix re-decodes as truncated=%v with %d records (had %d)",
				again.Truncated, len(again.Records), len(d.Records))
		}
		if !d.Truncated {
			ext := DecodeAll(append(append([]byte(nil), data...), 0xFE, 0xED))
			if len(ext.Records) < len(d.Records) {
				t.Fatalf("garbage extension lost %d records", len(d.Records)-len(ext.Records))
			}
			for _, zeros := range []int{1, 8, 4096} {
				z := DecodeAll(append(append([]byte(nil), data...), make([]byte, zeros)...))
				if z.Truncated || z.ValidBytes != d.ValidBytes || len(z.Records) != len(d.Records) {
					t.Fatalf("%d zero bytes after a clean image: truncated=%v (%s), %d valid bytes (had %d), %d records (had %d)",
						zeros, z.Truncated, z.Reason, z.ValidBytes, d.ValidBytes, len(z.Records), len(d.Records))
				}
			}
		}
	})
}
