package wire

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"slices"
	"sync"
)

// ownFrames is how a stream of frames from this process's gob encoder
// opens — the definition messages before the first value — and the type
// id each value message starts with; both nil if they could not be
// learnt, and then no stream is read by hand.
var ownFrames struct {
	once     sync.Once
	defs, id []byte
}

func ownFrameWire() (defs, id []byte) {
	ownFrames.once.Do(func() {
		var stream bytes.Buffer
		if err := gob.NewEncoder(&stream).Encode(frame{ID: 1}); err != nil {
			return
		}
		if split := valueOffset(stream.Bytes()); split > 0 {
			ownFrames.defs, ownFrames.id = stream.Bytes()[:split], valueTypeID(stream.Bytes(), split)
		}
	})
	return ownFrames.defs, ownFrames.id
}

// readChunk is how far ahead of the bytes that have arrived a message
// buffer grows: a length is the sender's claim.
const readChunk = 1 << 20

// maxInterned bounds the method names one connection keeps.
const maxInterned = 64

// frameReader reads the frames of one connection. gob's decoder
// allocates each message's buffer, then the frame, its Method and its
// Body; the reader follows gob's framing itself into one buffer it keeps,
// reads the eight fields by hand and copies Body out once, into storage
// from a list whose owner knows when the body is dead.
//
// It reads by hand only a stream that opens with exactly the definitions
// this process's own encoder writes for frame, and only value messages
// exactly as that encoder writes them: those bytes are gob's statement
// of this build's layout (the own-definitions rule, DESIGN.md "Wire body
// codec"). At the first byte that is anything else — other definitions,
// a length or field in more bytes than it needs, a zero field written
// out, an unknown field, a byte after the terminator — gob takes over
// for the life of the connection: a gob.Decoder behind frameCap is handed
// the definitions, the message in hand and the rest of the connection,
// which leaves it where a decoder that had read the whole stream would
// be, since value messages teach a decoder nothing.
type frameReader struct {
	br      *bufio.Reader
	bodies  *SliceList[byte]
	msg     []byte // the message in hand, its length included
	matched int    // bytes of the own definitions the stream has opened with
	methods map[string]string
	dec     *gob.Decoder // set once gob has taken over
}

func newFrameReader(r io.Reader, bodies *SliceList[byte]) *frameReader {
	return &frameReader{br: bufio.NewReader(r), bodies: bodies}
}

// next returns the next frame. Its Body is from fr.bodies or, after gob
// has taken over, gob's own allocation; either way it is the caller's.
func (fr *frameReader) next() (frame, error) {
	for fr.dec == nil {
		header, err := fr.readMessage()
		if err != nil {
			return frame{}, err
		}
		// Learnt only now that a message is here, as gob's decoder met
		// frame at its first message: gob numbers types in order of first
		// use, and byte counts downstream depend on the numbering.
		defs, id := ownFrameWire()
		if header > 0 && fr.matched < len(defs) {
			if bytes.HasPrefix(defs[fr.matched:], fr.msg) {
				fr.matched += len(fr.msg)
				continue
			}
		} else if header > 0 && id != nil {
			if f, ok := fr.parse(fr.msg[header:], id); ok {
				return f, nil
			}
		}
		replay := append(bytes.Clone(defs[:fr.matched]), fr.msg...)
		fr.dec = gob.NewDecoder(&frameCap{r: io.MultiReader(bytes.NewReader(replay), fr.br)})
		fr.msg = nil
	}
	var f frame
	err := fr.dec.Decode(&f)
	return f, err
}

// readMessage reads the next message into fr.msg, length first, and
// returns the width of the length. Width 0 without an error is a length
// ReadGobUint refuses: fr.msg then holds what was read of it, for gob to
// judge. A length above maxFrameBytes fails the stream before any of the
// message is read.
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
			return 0, nil
		}
		fr.msg = fr.msg[:1+n]
		if _, err := io.ReadFull(fr.br, fr.msg[1:]); err != nil {
			return 0, err
		}
	}
	size, header := ReadGobUint(fr.msg)
	if header == 0 {
		return 0, nil
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
// frame as this process's encoder writes one: the type id, then each
// field that is not zero as its distance from the field before it and
// its value, then a zero byte and nothing more.
func (fr *frameReader) parse(m, id []byte) (frame, bool) {
	if !bytes.HasPrefix(m, id) {
		return frame{}, false
	}
	m = m[len(id):]
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
