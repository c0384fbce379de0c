package digruber

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
	"time"

	"digruber/internal/gossip"
	"digruber/internal/gruber"
	"digruber/internal/usla"
	"digruber/internal/wire"
)

var updateWireGolden = flag.Bool("update", false, "rewrite testdata/wire-bytes.golden from the current wire types")

// wireRow is a value with every field set and the type's older shapes,
// each named by the first field appended since and holding the value
// with that field and all after it zero: bytes that never change.
type wireRow struct {
	v      any
	before []string
}

func wireRows() []wireRow {
	d := gruber.Dispatch{JobID: "job-17", Site: "site-003", Owner: "uc.cs.grads", CPUs: 4,
		Runtime: 90 * time.Minute, At: epoch.Add(11 * time.Minute), Origin: "dp-2", Seq: 17}
	ds, cur := []gruber.Dispatch{d}, []gossip.Cursor{{Origin: "dp-0", Seq: 12}, {Origin: "dp-3", Seq: 4}}
	member := gossip.Member{Name: "dp-4", Node: "node-4", Addr: "dp-4:7070"}
	load := gruber.SiteLoad{Name: "site-003", TotalCPUs: 128, EstFreeCPUs: 40, Headroom: 12.5, TargetGap: -3.25}
	entry := usla.Entry{Provider: "site-001", Consumer: usla.MustParsePath("atlas.higgs.alice"),
		Resource: usla.CPU, Share: usla.Share{Percent: 30, Kind: usla.UpperLimit}}
	origin := gruber.OriginState{Origin: "dp-2", Floor: 16, Records: ds}
	alert := AlertSummary{VO: "atlas", State: "firing", Since: epoch.Add(15 * time.Minute), Burn: 3.5}
	status := StatusReply{Name: "dp-0", Queries: 42, LocalDispatches: 7, RemoteDispatches: 3,
		Received: 50, Shed: 1, ConnLost: 1, InFlight: 2, Queued: 4,
		Saturated: true, ObservedRate: 2.5, CapacityRate: 2.0,
		Peers:   []PeerHealth{{Name: "dp-1", State: "alive"}, {Name: "dp-2", State: "dead"}},
		Metrics: []MetricSample{{Name: "dp/dp-0/wire/inflight", V: 2}},
		Expired: 9, State: StateDraining, Alerts: []AlertSummary{alert}}
	return []wireRow{
		{v: d, before: []string{"Seq"}}, {v: cur[0]}, {v: member}, {v: load},
		{v: entry}, {v: entry.Consumer}, {v: entry.Share}, {v: origin},
		{v: gruber.EngineState{Origins: []gruber.OriginState{origin}, View: ds}},
		{v: ProposeArgs{AgreementXML: []byte("<agreement/>")}},
		{v: ProposeReply{EntriesAdded: 2, Warnings: []string{"term expired"}}},
		{v: PublishedArgs{Provider: "site-001"}}, {v: PublishedReply{AgreementsXML: [][]byte{[]byte("<agreement/>")}}},
		{v: ScheduleArgs{JobID: "job-18", Owner: "atlas.higgs", CPUs: 2, Runtime: time.Hour}},
		{v: ScheduleReply{Site: "site-003", OK: true}}, {v: ReportReply{OK: true}}, {v: ReportArgs{Dispatch: d}},
		{v: QueryArgs{Owner: "atlas.higgs", CPUs: 2}}, {v: QueryReply{Loads: []gruber.SiteLoad{load}}},
		{v: ExchangeArgs{From: "dp-2", Dispatches: ds, USLAs: []usla.Entry{entry}}}, {v: ExchangeReply{From: "dp-0"}},
		{v: GossipArgs{From: "dp-2", Digest: cur, Records: ds, Members: []gossip.Member{member}}},
		{v: GossipReply{From: "dp-0", Digest: cur, Records: ds}}, {v: SnapshotReply{From: "dp-0", Dispatches: ds}},
		{v: SnapshotArgs{From: "dp-3", Vector: cur}, before: []string{"Vector"}},
		{v: StatusArgs{WithMetrics: true}, before: []string{"WithMetrics"}},
		{v: status, before: []string{"Alerts", "State", "Expired", "Metrics"}},
		{v: status.Peers[1]}, {v: status.Metrics[0]}, {v: alert}, {v: walEntry{D: d, Logged: true}},
	}
}

// TestWireGolden pins the gob value body of every wire type but the
// frame (wire's own table): body length drives the emulated service
// time, and the benchmark counts wire bytes per decision. Each row
// decodes back to itself, so an appended field left unset (a non-durable
// point's SnapshotArgs, an unstamped Dispatch) is read as sent. Beside
// its value rows, every registered type (wireTypes) has a definitions
// row: the bytes each of its bodies opens with, which name, order and
// type every field of every struct the type reaches. wire.DecodeBody
// refuses a body whose definitions differ, so any change to them breaks
// a fleet of mixed builds and is re-recorded here on purpose.
func TestWireGolden(t *testing.T) {
	for _, r := range wireRows() {
		typ, full := reflect.TypeOf(r.v), reflect.ValueOf(r.v)
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() && full.Field(i).IsZero() {
				t.Errorf("%s.%s is zero in the every-field-set row", typ, typ.Field(i).Name)
			}
		}
	}
	var lines []string
	rows := map[string]bool{}
	for _, l := range goldenLines(t) {
		lines = append(lines, l.name+" "+l.body)
		rows[l.name] = true
	}
	for _, v := range wireTypes {
		if name := reflect.TypeOf(v).String(); !rows[name] || !rows[name+"/definitions"] {
			t.Errorf("%s is registered but has no value row or no definitions row: give it a row in wireRows", name)
		}
	}
	file, got := filepath.Join("testdata", "wire-bytes.golden"), strings.Join(lines, "\n")+"\n"
	if *updateWireGolden && os.WriteFile(file, []byte(got), 0o644) != nil {
		t.Fatal("cannot write", file)
	}
	recorded, moved := recordedRows(t), false
	for _, l := range lines {
		if name, body, _ := strings.Cut(l, " "); recorded[name] != body {
			moved = true
			t.Errorf("%s differs from %s; re-record with -update only on purpose:\n got %s\nwant %s", name, file, body, recorded[name])
		}
	}
	if want, _ := os.ReadFile(file); !moved && got != string(want) {
		t.Errorf("the rows of %s are not the table's:\n got:\n%s\nwant:\n%s", file, got, want)
	}
}

// goldenLine is one row of the table: its name, its value and the
// value's body in hex.
type goldenLine struct {
	name string
	v    any
	body string
}

// goldenLines expands wireRows into the table's lines: a registered
// type's definitions, then its every-field-set row, then each older shape.
func goldenLines(t *testing.T) []goldenLine {
	registered := map[reflect.Type]bool{}
	for _, v := range wireTypes {
		registered[reflect.TypeOf(v)] = true
	}
	var ls []goldenLine
	for _, r := range wireRows() {
		typ, full := reflect.TypeOf(r.v), reflect.ValueOf(r.v)
		if registered[typ] {
			ls = append(ls, goldenLine{typ.String() + "/definitions", nil, definitions(t, typ)})
		}
		ls = append(ls, goldenLine{typ.String(), r.v, goldenBody(t, r.v)})
		for _, f := range r.before {
			old := reflect.New(typ).Elem()
			old.Set(full)
			sf, _ := typ.FieldByName(f)
			for i := sf.Index[0]; i < typ.NumField(); i++ {
				old.Field(i).SetZero()
			}
			ls = append(ls, goldenLine{typ.String() + "/before-" + f, old.Interface(), goldenBody(t, old.Interface())})
		}
	}
	return ls
}

// recordedRows reads the golden file: row name to body in hex.
func recordedRows(t *testing.T) map[string]string {
	t.Helper()
	file, err := os.ReadFile(filepath.Join("testdata", "wire-bytes.golden"))
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(file)), "\n") {
		name, body, _ := strings.Cut(l, " ")
		recorded[name] = body
	}
	return recorded
}

// olderShapes returns the named older-shape lines and, in the same
// order, the bytes the golden file records for them.
func olderShapes(t *testing.T, names ...string) ([]goldenLine, []string) {
	t.Helper()
	recorded := recordedRows(t)
	byName := map[string]goldenLine{}
	for _, l := range goldenLines(t) {
		byName[l.name] = l
	}
	var ls []goldenLine
	var bodies []string
	for _, n := range names {
		l, ok := byName[n]
		if !ok || recorded[n] == "" {
			t.Fatalf("%s is not a row of the golden table", n)
		}
		ls, bodies = append(ls, l), append(bodies, recorded[n])
	}
	return ls, bodies
}

// appendOnly checks that each named older shape still encodes to the
// bytes recorded for it, and that setting the appended fields (the
// type's every-field-set row) changes them: the fields cost bytes only
// when set.
func appendOnly(t *testing.T, names ...string) {
	t.Helper()
	ls, recorded := olderShapes(t, names...)
	for i, l := range ls {
		if l.body != recorded[i] {
			t.Errorf("%s encoding changed:\n got %s\nwant %s", l.name, l.body, recorded[i])
		}
		full, _, _ := strings.Cut(l.name, "/")
		if full, _ := olderShapes(t, full); full[0].body == l.body {
			t.Errorf("setting the fields appended since %s did not change the encoding", l.name)
		}
	}
}

// crossDecode decodes the bytes recorded for each named older shape —
// what a sender that leaves the appended fields unset puts on the
// wire — into today's type and checks that those fields read as zero.
func crossDecode(t *testing.T, names ...string) {
	t.Helper()
	ls, recorded := olderShapes(t, names...)
	for i, l := range ls {
		body, err := hex.DecodeString(recorded[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenDecode(t, reflect.TypeOf(l.v), body); !reflect.DeepEqual(got, l.v) {
			t.Errorf("%s decodes to\n %+v\nwant %+v", l.name, got, l.v)
		}
	}
}

// The append-only gates of the types that grew fields: StatusArgs and
// StatusReply (WithMetrics, Metrics, Expired, State, Alerts in turn) and
// SnapshotArgs (Vector). Each field stays last when appended — gob
// delta-encodes field indices, so inserting one earlier would renumber
// the fields after it and change these bytes.
func TestStatusWireCompat(t *testing.T) {
	appendOnly(t, "digruber.StatusArgs/before-WithMetrics", "digruber.StatusReply/before-Metrics")
}

func TestStatusCrossDecode(t *testing.T) {
	crossDecode(t, "digruber.StatusArgs/before-WithMetrics", "digruber.StatusReply/before-Metrics")
}

func TestStatusExpiredWireCompat(t *testing.T) {
	appendOnly(t, "digruber.StatusReply/before-Expired")
}

func TestStatusExpiredCrossDecode(t *testing.T) {
	crossDecode(t, "digruber.StatusReply/before-Expired")
}

func TestStatusStateWireCompat(t *testing.T) { appendOnly(t, "digruber.StatusReply/before-State") }

func TestStatusStateCrossDecode(t *testing.T) { crossDecode(t, "digruber.StatusReply/before-State") }

func TestStatusAlertsWireCompat(t *testing.T) { appendOnly(t, "digruber.StatusReply/before-Alerts") }

func TestStatusAlertsCrossDecode(t *testing.T) { crossDecode(t, "digruber.StatusReply/before-Alerts") }

// A non-durable point sends SnapshotArgs without a vector; a donor reads
// it as vector-less and serves the full snapshot.
func TestSnapshotWireCompat(t *testing.T) { appendOnly(t, "digruber.SnapshotArgs/before-Vector") }

func TestSnapshotCrossDecode(t *testing.T) { crossDecode(t, "digruber.SnapshotArgs/before-Vector") }

// definitions returns, in hex, what every body of the registered type
// typ opens with: wire.AppendBody of its zero value, cut where the value
// message starts.
func definitions(t *testing.T, typ reflect.Type) string {
	t.Helper()
	body, err := wire.AppendBody(nil, reflect.Zero(typ).Interface())
	off := wire.ValueOffset(body)
	if err != nil || off < 0 {
		t.Fatalf("%s: no body of definitions and one value (err %v)", typ, err)
	}
	return hex.EncodeToString(body[:off])
}

// goldenBody encodes v on a gob stream primed with its type's zero value,
// checks that the message decodes back to v, and returns it in hex
// without the byte count and the type id: the id counts what the stream
// registered before, not what the message carries.
func goldenBody(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc, dec, typ := gob.NewEncoder(&buf), gob.NewDecoder(&buf), reflect.TypeOf(v)
	if err := enc.Encode(reflect.Zero(typ).Interface()); err != nil || dec.Decode(reflect.New(typ).Interface()) != nil {
		t.Fatal("priming the stream:", err)
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	msg, back := bytes.Clone(buf.Bytes()), reflect.New(typ)
	if err := dec.Decode(back.Interface()); err != nil || !reflect.DeepEqual(back.Elem().Interface(), v) {
		t.Errorf("%s does not decode back (err %v):\n got %+v\nwant %+v", typ, err, back.Elem(), v)
	}
	for range 2 { // a uint past 0x7f opens with its negated length
		msg = msg[1+max(0, -int(int8(msg[0]))):]
	}
	return hex.EncodeToString(msg)
}

// goldenDecode decodes a value body of type typ, as goldenBody returns
// it, on a stream primed with typ: it frames the body again with the
// stream's type id and the byte count.
func goldenDecode(t *testing.T, typ reflect.Type, body []byte) any {
	t.Helper()
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	zero := reflect.Zero(typ).Interface()
	if err := enc.Encode(zero); err != nil || dec.Decode(reflect.New(typ).Interface()) != nil || enc.Encode(zero) != nil {
		t.Fatal("priming the stream:", err)
	}
	msg := buf.Bytes()
	msg = msg[1+max(0, -int(int8(msg[0]))):]
	id := bytes.Clone(msg[:1+max(0, -int(int8(msg[0])))])
	buf.Reset()
	buf.Write(wire.AppendGobUint(nil, uint64(len(id)+len(body))))
	buf.Write(id)
	buf.Write(body)
	v := reflect.New(typ)
	if err := dec.Decode(v.Interface()); err != nil {
		t.Fatalf("%s: %v", typ, err)
	}
	return v.Elem().Interface()
}
