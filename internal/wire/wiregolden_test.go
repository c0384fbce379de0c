package wire

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateWireGolden = flag.Bool("update", false, "rewrite testdata/wire-bytes.golden from the current frame")

// frameRows is the frame with every field set, then its older shapes —
// no deadline, and untraced with no deadline — under their golden names.
func frameRows() ([]string, []frame) {
	full := frame{ID: 9, Kind: frameRequest, Method: "DIGRUBER.QuerySiteLoads",
		Body: []byte{1, 2, 3}, Err: "overloaded", Trace: 77, Span: 5, Deadline: 1234567890}
	noDeadline, untraced := full, full
	noDeadline.Deadline, untraced.Trace, untraced.Span, untraced.Deadline = 0, 0, 0, 0
	return []string{"wire.frame", "wire.frame/before-Deadline", "wire.frame/before-Trace"},
		[]frame{full, noDeadline, untraced}
}

// TestWireGolden is internal/digruber's TestWireGolden for the frame:
// each row pinned as a gob value body that decodes back, then the
// definitions a stream of this build's frames opens with, the only
// definitions the frame reader takes. Its type id here counts the types
// this package's tests register first.
func TestWireGolden(t *testing.T) {
	names, frames := frameRows()
	for i := 0; i < reflect.TypeOf(frames[0]).NumField(); i++ {
		if reflect.ValueOf(frames[0]).Field(i).IsZero() {
			t.Errorf("frame.%s is zero in the every-field-set row", reflect.TypeOf(frames[0]).Field(i).Name)
		}
	}
	var got []byte
	for i, f := range frames {
		got = append(got, names[i]+" "...)
		got = append(hex.AppendEncode(got, frameBody(t, f)), '\n')
	}
	defs, err := AppendBody(nil, frame{})
	off := ValueOffset(defs)
	if err != nil || off < 0 {
		t.Fatalf("frame: no body of definitions and one value (err %v)", err)
	}
	got = append(hex.AppendEncode(append(got, "wire.frame/definitions "...), defs[:off]), '\n')
	file := filepath.Join("testdata", "wire-bytes.golden")
	if *updateWireGolden && os.WriteFile(file, got, 0o644) != nil {
		t.Fatal("cannot write", file)
	}
	if want, err := os.ReadFile(file); !bytes.Equal(got, want) {
		t.Errorf("frame bytes differ from %s (err %v); re-record with -update only on purpose:\n got:\n%s\nwant:\n%s", file, err, got, want)
	}
}

// TestFrameDeadlineWireCompat is the append-only gate for Deadline and,
// before it, Trace and Span: a frame that leaves them unset still
// encodes to the bytes recorded for its older shape, and setting them
// changes the bytes. Deadline stays the last field — gob delta-encodes
// field indices, so inserting a field earlier would change these bytes.
func TestFrameDeadlineWireCompat(t *testing.T) {
	names, frames := frameRows()
	recorded := recordedFrames(t)
	for i, f := range frames {
		if got := hex.EncodeToString(frameBody(t, f)); got != recorded[names[i]] {
			t.Errorf("%s encoding changed:\n got %s\nwant %s", names[i], got, recorded[names[i]])
		}
		if i > 0 && recorded[names[i]] == recorded[names[0]] {
			t.Errorf("setting the fields appended since %s did not change the encoding", names[i])
		}
	}
}

// TestFrameDeadlineCrossDecode: the bytes recorded for a frame without a
// deadline decode with Deadline zero — "no deadline" — and every other
// field intact.
func TestFrameDeadlineCrossDecode(t *testing.T) {
	names, frames := frameRows()
	recorded := recordedFrames(t)
	for i, want := range frames[1:] {
		body, err := hex.DecodeString(recorded[names[i+1]])
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
		var got frame
		if err := enc.Encode(got); err != nil || dec.Decode(&got) != nil || enc.Encode(got) != nil {
			t.Fatal("priming the stream:", err)
		}
		msg := buf.Bytes()
		id := bytes.Clone(msg[1 : 2+max(0, -int(int8(msg[1])))]) // after a one-byte count: the stream's type id
		buf.Reset()
		buf.Write(AppendGobUint(nil, uint64(len(id)+len(body))))
		buf.Write(id)
		buf.Write(body)
		if err := dec.Decode(&got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes to %+v (err %v), want %+v", names[i+1], got, err, want)
		}
	}
}

// frameBody encodes f on a gob stream primed with a zero frame, checks
// that it decodes back, and returns it without the byte count and the
// stream-local type id.
func frameBody(t *testing.T, f frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	var primer, back frame
	if err := enc.Encode(primer); err != nil || dec.Decode(&primer) != nil {
		t.Fatal("priming the stream:", err)
	}
	if err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	msg := bytes.Clone(buf.Bytes())
	if err := dec.Decode(&back); err != nil || !reflect.DeepEqual(back, f) {
		t.Errorf("%+v does not decode back (err %v): %+v", f, err, back)
	}
	for range 2 { // the byte count, then the stream-local type id
		msg = msg[1+max(0, -int(int8(msg[0]))):]
	}
	return msg
}

// recordedFrames reads the golden file: row name to body in hex.
func recordedFrames(t *testing.T) map[string]string {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "wire-bytes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(file)), "\n") {
		name, body, _ := strings.Cut(l, " ")
		rows[name] = body
	}
	return rows
}
