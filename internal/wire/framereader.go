package wire

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"reflect"
	"slices"
	"sync"
)

// ownFrames returns how a stream of frames from this build's gob encoder
// opens — the definition messages before the first value — and the type
// id each value message starts with. frame is numbered once, by the
// first Register right after the registering package's bodies, or here
// in a process that registers nothing.
var ownFrames = sync.OnceValues(func() (defs, id []byte) {
	// frame is fixed, reaches no interface and always encodes.
	defs, id, _ = numberType(reflect.TypeOf(frame{}))
	return defs, id
})

// maxFrameBytes is the longest message either end of a connection will
// read. A frame carries one body, and the largest a decision point sends
// is a full SnapshotReply — every unexpired dispatch it holds, a hundred
// bytes each; a 300-load QueryReply is 11 KB. A peer that announced a
// longer message and then trickled it would otherwise pin as much memory
// as it cared to send.
const maxFrameBytes = 64 << 20

// readChunk is how far ahead of the bytes that have arrived a message
// buffer grows: a length is the sender's claim.
const readChunk = 1 << 20

// maxInterned bounds the method names one connection keeps.
const maxInterned = 64

// frameReader reads the frames of one connection, and only this build's.
// gob's decoder allocates each message's buffer, then the frame, its
// Method and its Body; the reader follows gob's framing itself into one
// buffer it keeps, reads the eight fields by hand and copies Body out
// once, into storage from a list whose owner knows when the body is dead.
//
// A stream must open with exactly the definitions this build's encoder
// writes for frame, and every value message after them must be exactly
// as that encoder writes it: those bytes are gob's statement of this
// build's layout (the own-definitions rule, DESIGN.md "Wire body codec").
// At the first byte that is anything else — other definitions, a length
// or field in more bytes than it needs, a zero field written out, an
// unknown field, a byte after the terminator, a length ReadGobUint
// refuses — next fails with ErrForeignBody, and the connection is closed
// as on any read error. No gob.Decoder ever reads a connection.
type frameReader struct {
	br       *bufio.Reader
	bodies   *SliceList[byte]
	defs, id []byte // ownFrames
	msg      []byte // the message in hand, its length included
	matched  int    // bytes of defs the stream has opened with
	methods  map[string]string
}

func newFrameReader(r io.Reader, bodies *SliceList[byte]) *frameReader {
	fr := &frameReader{br: bufio.NewReader(r), bodies: bodies}
	fr.defs, fr.id = ownFrames()
	return fr
}

// next returns the next frame. Its Body is from fr.bodies and the
// caller's.
func (fr *frameReader) next() (frame, error) {
	for {
		header, err := fr.readMessage()
		if err != nil {
			return frame{}, err
		}
		if fr.matched == len(fr.defs) {
			if f, ok := fr.parse(fr.msg[header:]); ok {
				return f, nil
			}
			return frame{}, ErrForeignBody
		}
		if !bytes.HasPrefix(fr.defs[fr.matched:], fr.msg) {
			return frame{}, ErrForeignBody
		}
		fr.matched += len(fr.msg)
	}
}

// readMessage reads the next message into fr.msg, length first, and
// returns the width of the length. A length ReadGobUint refuses fails
// the stream with ErrForeignBody, and one above maxFrameBytes with
// ErrFrameTooLarge, both before any of the message is read.
func (fr *frameReader) readMessage() (header int, err error) {
	if cap(fr.msg) > maxRetained {
		fr.msg = nil
	}
	first, err := fr.br.ReadByte()
	if err != nil {
		return 0, err
	}
	fr.msg = append(slices.Grow(fr.msg[:0], 9), first)
	if n := -int(int8(first)); first >= 0x80 {
		if n > 8 {
			return 0, ErrForeignBody
		}
		fr.msg = fr.msg[:1+n]
		if _, err := io.ReadFull(fr.br, fr.msg[1:]); err != nil {
			return 0, err
		}
	}
	size, header := ReadGobUint(fr.msg)
	if header == 0 {
		return 0, ErrForeignBody
	}
	if size > maxFrameBytes {
		return 0, ErrFrameTooLarge
	}
	for rest := int(size); rest > 0; {
		n, at := min(rest, readChunk), len(fr.msg)
		fr.msg = slices.Grow(fr.msg, n)[:at+n]
		if _, err := io.ReadFull(fr.br, fr.msg[at:]); err != nil {
			return 0, err
		}
		rest -= n
	}
	return header, nil
}

// parse reads a value message — what follows its length — if it is a
// frame as this build's encoder writes one: the type id, then each
// field that is not zero as its distance from the field before it and
// its value, then a zero byte and nothing more.
func (fr *frameReader) parse(m []byte) (frame, bool) {
	if !bytes.HasPrefix(m, fr.id) {
		return frame{}, false
	}
	m = m[len(fr.id):]
	var f frame
	var method, body, errText []byte
	for at := -1; ; {
		delta, w := ReadGobUint(m)
		if w == 0 || delta > 8 {
			return frame{}, false
		}
		m = m[w:]
		if delta == 0 {
			break
		}
		at += int(delta)
		// Every field opens with an unsigned integer: the value, the
		// length of a string or of Body, Deadline's folded sign.
		u, w := ReadGobUint(m)
		if w == 0 || u == 0 {
			return frame{}, false
		}
		m = m[w:]
		switch at {
		case 0:
			f.ID = u
		case 1:
			if u > math.MaxUint8 {
				return frame{}, false
			}
			f.Kind = byte(u)
		case 2, 3, 4:
			if u > uint64(len(m)) {
				return frame{}, false
			}
			switch s := m[:u]; at {
			case 2:
				method = s
			case 3:
				body = s
			default:
				errText = s
			}
			m = m[u:]
		case 5:
			f.Trace = u
		case 6:
			f.Span = u
		case 7:
			f.Deadline = GobInt(u)
		default:
			return frame{}, false
		}
	}
	if len(m) != 0 {
		return frame{}, false
	}
	if s, ok := fr.methods[string(method)]; ok {
		f.Method = s
	} else if f.Method = string(method); len(method) > 0 && len(fr.methods) < maxInterned {
		if fr.methods == nil {
			fr.methods = make(map[string]string)
		}
		fr.methods[f.Method] = f.Method
	}
	if body != nil {
		f.Body = append(fr.bodies.Take(len(body)), body...)
	}
	f.Err = string(errText)
	return f, true
}
