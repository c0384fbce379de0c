package gruber

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"digruber/internal/wire"
)

// goldenDispatches returns internal/digruber's every-field-set Dispatch
// row and its unstamped older shape, with the bodies its golden table
// records for them.
func goldenDispatches(t *testing.T) (stamped, unstamped Dispatch, stampedBody, unstampedBody string) {
	t.Helper()
	stamped = Dispatch{JobID: "job-17", Site: "site-003", Owner: "uc.cs.grads", CPUs: 4,
		Runtime: 90 * time.Minute, At: epoch.Add(11 * time.Minute), Origin: "dp-2", Seq: 17}
	unstamped = stamped
	unstamped.Seq = 0
	file, err := os.ReadFile(filepath.Join("..", "digruber", "testdata", "wire-bytes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(string(file), "\n") {
		switch name, body, _ := strings.Cut(l, " "); name {
		case "gruber.Dispatch":
			stampedBody = body
		case "gruber.Dispatch/before-Seq":
			unstampedBody = body
		}
	}
	return stamped, unstamped, stampedBody, unstampedBody
}

// TestDispatchWireCompat is the append-only gate for Seq: an unstamped
// record encodes to the bytes recorded for the shape without Seq, and
// the field costs bytes only when stamped. Seq stays the last Dispatch
// field — gob delta-encodes field indices, so inserting it earlier
// would renumber Origin and change these bytes.
func TestDispatchWireCompat(t *testing.T) {
	stamped, unstamped, stampedBody, unstampedBody := goldenDispatches(t)
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(Dispatch{}); err != nil {
		t.Fatal("priming the stream:", err)
	}
	for _, c := range []struct {
		d    Dispatch
		want string
	}{{unstamped, unstampedBody}, {stamped, stampedBody}} {
		buf.Reset()
		if err := enc.Encode(c.d); err != nil {
			t.Fatal(err)
		}
		msg := buf.Bytes()
		for range 2 { // the byte count, then the stream-local type id
			msg = msg[1+max(0, -int(int8(msg[0]))):]
		}
		if got := hex.EncodeToString(msg); got != c.want {
			t.Errorf("Seq %d: encoding changed:\n got %s\nwant %s", c.d.Seq, got, c.want)
		}
	}
	if stampedBody == unstampedBody {
		t.Error("stamping Seq did not change the encoding")
	}
}

// TestDispatchCrossDecode: the bytes recorded for a record without Seq
// decode with Seq zero — unstamped, which MergeGossip ignores and
// MergeRemote accepts — and every other field intact.
func TestDispatchCrossDecode(t *testing.T) {
	_, unstamped, _, unstampedBody := goldenDispatches(t)
	body, err := hex.DecodeString(unstampedBody)
	if err != nil || len(body) == 0 {
		t.Fatalf("no gruber.Dispatch/before-Seq row (err %v)", err)
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	if err := enc.Encode(Dispatch{}); err != nil || dec.Decode(new(Dispatch)) != nil || enc.Encode(Dispatch{}) != nil {
		t.Fatal("priming the stream:", err)
	}
	msg := buf.Bytes()
	id := bytes.Clone(msg[1 : 2+max(0, -int(int8(msg[1])))]) // after a one-byte count: the stream's type id
	buf.Reset()
	buf.Write(wire.AppendGobUint(nil, uint64(len(id)+len(body))))
	buf.Write(id)
	buf.Write(body)
	var got Dispatch
	if err := dec.Decode(&got); err != nil || !reflect.DeepEqual(got, unstamped) {
		t.Errorf("decodes to %+v (err %v), want %+v", got, err, unstamped)
	}
}
