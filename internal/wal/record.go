package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Record framing: every record is an 8-byte header — a 4-byte
// little-endian payload length followed by a 4-byte CRC-32C (Castagnoli)
// of the payload — then the payload bytes. The length is read first and
// sanity-capped before any allocation, so garbage input cannot ask the
// decoder for gigabytes; the CRC is checked before a record is
// surfaced, so a bit flip anywhere in the payload (or in the length,
// which desynchronizes the stream and lands the CRC on random bytes)
// turns the record and everything after it into a reported truncation,
// never a panic and never silently corrupt state.
//
// The end mark: CRC-32C of no bytes is 0, so an empty record's header
// is eight zero bytes — exactly what space a store zero-filled ahead of
// the log and never wrote reads as. The two cannot be told apart, so
// there are no empty records (AppendBatch refuses one) and an all-zero
// header means "the log ends here".

// headerSize is the per-record framing overhead in bytes.
const headerSize = 8

// maxRecordLen caps a single record's payload. Real records are a few
// hundred bytes (one gob-encoded dispatch entry) or a checkpoint of at
// most a fleet's working set; 64 MiB is far above both and small enough
// that a corrupt length field cannot drive a huge allocation.
const maxRecordLen = 64 << 20

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends one framed record to buf and returns the result.
func appendRecord(buf, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Truncation reasons reported by DecodeAll.
const (
	ReasonTornHeader  = "torn header"           // trailing bytes shorter than a header
	ReasonTornPayload = "torn payload"          // header promises more bytes than remain
	ReasonOversized   = "oversized record"      // length field above maxRecordLen
	ReasonChecksum    = "checksum mismatch"     // payload bytes fail the CRC
	ReasonAfterEnd    = "data after end of log" // non-zero bytes past the end mark
)

// Decoded is DecodeAll's verdict on a log image: the records of the
// valid prefix, how long that prefix is, and — when the image did not
// end cleanly at a record boundary — why decoding stopped.
type Decoded struct {
	// Records are the payloads of the valid prefix, in append order.
	// Each aliases the input slice; callers that outlive the input copy.
	Records [][]byte
	// ValidBytes is the length of the longest prefix made of whole,
	// checksummed records — where a recovery truncates the log to.
	ValidBytes int64
	// Truncated reports whether anything after the valid prefix was
	// dropped (a torn tail from a crash mid-write, or corruption).
	Truncated bool
	// Reason is one of the Reason* constants when Truncated, else "".
	Reason string
}

// DecodeAll walks a log image record by record, stopping at the end
// mark or at the first torn or corrupt record. The image is clean when
// every byte from the end mark on is zero (preallocated space, however
// much of it); a non-zero byte there is what a torn batch leaves when a
// later page reached the disk and an earlier one did not. It never
// fails: any input, including
// adversarial garbage, yields the valid prefix plus a truncation
// verdict (see FuzzDecodeAll). The caller discards everything past
// ValidBytes — per-record recovery beyond the first fault is not
// attempted, because a log's records are causally ordered and replaying
// around a hole could resurrect state the lost record superseded.
func DecodeAll(data []byte) Decoded {
	var d Decoded
	for {
		rest := data[d.ValidBytes:]
		if len(rest) < headerSize {
			if !allZero(rest) {
				d.Truncated = true
				d.Reason = ReasonTornHeader
			}
			return d
		}
		if allZero(rest[:headerSize]) {
			if !allZero(rest[headerSize:]) {
				d.Truncated = true
				d.Reason = ReasonAfterEnd
			}
			return d
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxRecordLen {
			d.Truncated = true
			d.Reason = ReasonOversized
			return d
		}
		if uint32(len(rest)-headerSize) < n {
			d.Truncated = true
			d.Reason = ReasonTornPayload
			return d
		}
		payload := rest[headerSize : headerSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			d.Truncated = true
			d.Reason = ReasonChecksum
			return d
		}
		d.Records = append(d.Records, payload)
		d.ValidBytes += int64(headerSize) + int64(n)
	}
}

// allZero reports whether b holds nothing but zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
