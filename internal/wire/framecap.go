package wire

import "io"

// maxFrameBytes is the longest message either end of a connection will
// read. A frame carries one body, and the largest a decision point sends
// is a full SnapshotReply — every unexpired dispatch it holds, a hundred
// bytes each; a 300-load QueryReply is 11 KB. gob's own limit is 8 GiB,
// and it allocates for a message as its bytes arrive, so without a cap a
// peer that announces a long message and then trickles it pins as much
// memory as it cares to send.
const maxFrameBytes = 64 << 20

// frameCap passes a gob stream through unchanged and fails it with
// ErrFrameTooLarge at the first message that announces more than
// maxFrameBytes, before any of that message's bytes: gob.NewDecoder
// reads a connection through one. It follows gob's framing — an unsigned
// length, then that many bytes — across Reads that split either.
type frameCap struct {
	r    io.Reader
	body uint64  // bytes of the current message still to pass
	head [9]byte // the length read so far: a count byte and up to 8 more
	n    int     // bytes of head in use
}

func (f *frameCap) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	for i := 0; i < n; {
		if f.body > 0 {
			skip := min(uint64(n-i), f.body)
			f.body -= skip
			i += int(skip)
			continue
		}
		f.head[f.n] = p[i]
		f.n++
		i++
		size, width := gobUint(f.head[:f.n])
		switch {
		case width > 0:
			if size > maxFrameBytes {
				// p[:i-f.n] is whole messages, or the start of this
				// length, which is no use to gob without the rest.
				return max(i-f.n, 0), ErrFrameTooLarge
			}
			f.body, f.n = size, 0
		case int8(f.head[0]) < -8:
			// A count of more than 8 bytes is not a length: gob fails the
			// stream on this byte, and nothing after it is framed.
			f.body, f.n = ^uint64(0), 0
		}
	}
	return n, err
}
