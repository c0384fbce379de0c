package digruber

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"digruber/internal/gossip"
	"digruber/internal/gruber"
	"digruber/internal/usla"
)

// freshNameTable empties the name table for t, as a new process's is,
// and puts it back as it was when t ends: a test that reads made-up names
// leaves none of them in the table another test's allocation count reads
// from.
func freshNameTable(t testing.TB) {
	m := internedNames.m.Swap(nil)
	t.Cleanup(func() { internedNames.m.Store(m) })
}

// recordTimes is every shape of time a record carries: each location
// MarshalBinary tells apart, both binary versions, the zero time gob
// leaves out, a monotonic reading gob drops, and two offsets gob refuses.
func recordTimes() map[string]time.Time {
	at := time.Date(2005, 11, 12, 9, 30, 0, 123, time.UTC)
	return map[string]time.Time{
		"zero":                  {},
		"UTC":                   at,
		"local":                 at.Local(),
		"local, monotonic":      time.Now(),
		"a fixed zone":          at.In(time.FixedZone("CEST", 2*60*60)),
		"a zone of seconds":     at.In(time.FixedZone("LMT", -(5*60*60 + 17))),
		"the zero instant, CET": time.Time{}.In(time.FixedZone("CET", 60*60)),
		"year 9999":             time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		"zone offset -1 min":    at.In(time.FixedZone("bad", -60)),
		"zone offset too wide":  at.In(time.FixedZone("wide", 40000*60)),
	}
}

// recordSet is a handful of records that between them set every field
// to an edge: a zero record, names that are not ASCII, extreme integers.
func recordSet(at time.Time) []gruber.Dispatch {
	return []gruber.Dispatch{
		{JobID: "client-007-job-00042", Site: "site-123", Owner: "vo-03.group-07", CPUs: 1,
			Runtime: 15 * time.Minute, At: at, Origin: "dp-2", Seq: 99},
		{},
		{JobID: "é", Site: "сайт-7", Owner: "\x00", CPUs: -1 << 40, Runtime: -1, At: at, Seq: 1 << 63},
		{At: at, Origin: "dp-0"},
	}
}

// TestRecordBodiesMatchGob runs every body that carries records, and the
// write-ahead entry, through the record codec for every shape of time:
// the bytes are a fresh gob.Encoder's (or the value is refused where gob
// refuses it), and what they decode to is a fresh gob.Decoder's.
func TestRecordBodiesMatchGob(t *testing.T) {
	freshNameTable(t)
	p := newCodecProbe(t)
	cur := []gossip.Cursor{{Origin: "dp-0", Seq: 12}, {Origin: "dp-3"}, {}}
	members := []gossip.Member{{Name: "dp-4", Node: "node-4", Addr: "dp-4:7070"}, {Name: "dp-5"}, {}}
	for name, at := range recordTimes() {
		ds := recordSet(at)
		for i := range ds {
			smallBodyCase(t, p, fmt.Sprintf("ReportArgs %d, %s", i, name), ReportArgs{Dispatch: ds[i]})
			walEntryCase(t, fmt.Sprintf("record %d, %s", i, name), walEntry{D: ds[i], Logged: i%2 == 0})
		}
		smallBodyCase(t, p, "ExchangeArgs "+name, ExchangeArgs{From: "dp-1", Dispatches: ds})
		smallBodyCase(t, p, "GossipArgs "+name, GossipArgs{From: "dp-1", Round: 7, Digest: cur, Records: ds, Members: members})
		smallBodyCase(t, p, "GossipReply "+name, GossipReply{From: "dp-0", Digest: cur, Records: ds, Stored: -3})
		smallBodyCase(t, p, "SnapshotReply "+name, SnapshotReply{From: "dp-0", Dispatches: ds})
	}
	smallBodyCase(t, p, "ExchangeArgs zero", ExchangeArgs{})
	smallBodyCase(t, p, "ExchangeArgs without records", ExchangeArgs{From: "dp-1"})
	smallBodyCase(t, p, "GossipArgs zero", GossipArgs{})
	smallBodyCase(t, p, "GossipArgs a long round", GossipArgs{Round: 1 << 40})
	smallBodyCase(t, p, "GossipReply zero", GossipReply{})
	smallBodyCase(t, p, "GossipReply only Stored", GossipReply{Stored: 1})
	smallBodyCase(t, p, "SnapshotReply zero", SnapshotReply{})
	smallBodyCase(t, p, "SnapshotReply without records", SnapshotReply{From: "dp-0"})

	// USLA entries are gob's: the hook declines the body, and wire.Call
	// still sends and reads what gob does.
	entry := usla.Entry{Provider: "site-001", Consumer: usla.MustParsePath("atlas.higgs"),
		Resource: usla.CPU, Share: usla.Share{Percent: 30, Kind: usla.UpperLimit}}
	withUSLAs := ExchangeArgs{From: "dp-1", Dispatches: recordSet(time.Unix(1e9, 0).UTC()), USLAs: []usla.Entry{entry}}
	if own, ok := withUSLAs.AppendGobValue(nil); ok {
		t.Errorf("ExchangeArgs with USLAs: AppendGobValue wrote % x", own)
	}
	for round := 1; round <= 3; round++ {
		body, got := roundTrip(t, p, withUSLAs, nil)
		if want := freshGob(t, withUSLAs); !bytes.Equal(body, want) {
			t.Fatalf("ExchangeArgs with USLAs, call %d: sent % x, gob writes % x", round, body, want)
		}
		if fresh := freshDecode[ExchangeArgs](t, body); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("ExchangeArgs with USLAs, call %d: decoded %+v, gob %+v", round, got, fresh)
		}
	}
}

// walEntryCase holds the committer's record for en to a fresh
// gob.Encoder's, and replay's reading of it, by a fresh decoder and by
// a primed one, to a fresh gob.Decoder's.
func walEntryCase(t *testing.T, name string, en walEntry) {
	t.Helper()
	want, gobErr := encodeWALEntry(en)
	var enc entryEncoder
	got, err := enc.appendEntry([]byte("kept"), &en)
	if gobErr != nil {
		if err == nil {
			t.Errorf("%s: gob refuses it (%v), appendEntry wrote % x", name, gobErr, got)
		}
		return
	}
	if err != nil || !bytes.Equal(got, append([]byte("kept"), want...)) {
		t.Fatalf("%s: appendEntry wrote % x (%v), a fresh gob.Encoder % x", name, got, err, want)
	}
	fresh := freshDecode[walEntry](t, want)
	var dec walDecoder
	for pass := 1; pass <= 2; pass++ {
		if back, err := dec.decode(want); err != nil || !reflect.DeepEqual(back, fresh) {
			t.Fatalf("%s, read %d: replay read %+v (%v), a fresh gob.Decoder %+v", name, pass, back, err, fresh)
		}
	}
}

// TestWALEntryInAnotherLayoutReplays: records whose definitions are not
// this process's — here another build's entry, its fields in another
// order — replay as gob reads them, the second through the decoder the
// first primed, and a record in this process's layout after them still
// replays.
func TestWALEntryInAnotherLayoutReplays(t *testing.T) {
	type otherEntry struct {
		Logged bool
		D      gruber.Dispatch
	}
	ds := recordSet(time.Date(2005, 11, 12, 9, 30, 0, 0, time.UTC))
	var dec walDecoder
	for i, d := range ds {
		got, err := dec.decode(freshGob(t, otherEntry{Logged: i%2 == 0, D: d}))
		if want := (walEntry{D: d, Logged: i%2 == 0}); err != nil || got != want {
			t.Fatalf("record %d: replay read %+v (%v), want %+v", i, got, err, want)
		}
	}
	own := walEntry{D: ds[0]}
	if got, err := dec.decode(freshGob(t, own)); err != nil || got != own {
		t.Fatalf("replay read %+v (%v), want %+v", got, err, own)
	}
}

// checkWALEntryValue holds replay, by a decoder a valid record primed,
// to a fresh gob.Decoder on value bytes data framed as this process
// frames a record, and on data as a whole record; the valid record still
// replays after each.
func checkWALEntryValue(t *testing.T, data []byte) {
	t.Helper()
	frame, _ := valueFraming(t, walEntry{})
	valid := walEntry{D: recordSet(time.Unix(1e9, 5).UTC())[0], Logged: true}
	val, _ := valid.AppendGobValue(nil)
	validRecord := frame(val)
	var dec walDecoder
	for _, record := range [][]byte{frame(data), data, nil} {
		if got, err := dec.decode(validRecord); err != nil || got != valid {
			t.Fatalf("after % x: replay read %+v, %v; want %+v", record, got, err, valid)
		}
		if record == nil {
			return
		}
		got, err := dec.decode(record)
		var fresh walEntry
		freshErr := gob.NewDecoder(bytes.NewReader(record)).Decode(&fresh)
		if (err == nil) != (freshErr == nil) || err == nil && !reflect.DeepEqual(got, fresh) {
			t.Fatalf("record % x: replay read %+v, %v; a fresh gob.Decoder %+v, %v", record, got, err, fresh, freshErr)
		}
	}
}

// checkRecordBodies is checkSmallBodyValue for every body the record
// codec writes, and checkWALEntryValue.
func checkRecordBodies(t *testing.T, p *codecProbe, data []byte) {
	t.Helper()
	ds := recordSet(time.Unix(1e9, 5).UTC())
	checkSmallBodyValue(t, p, data, ReportArgs{Dispatch: ds[0]})
	checkSmallBodyValue(t, p, data, ExchangeArgs{From: "dp-1", Dispatches: ds})
	checkSmallBodyValue(t, p, data, GossipArgs{From: "dp-1", Round: 3, Digest: []gossip.Cursor{{Origin: "dp-0", Seq: 4}},
		Records: ds, Members: []gossip.Member{{Name: "dp-2", Node: "n-2", Addr: "dp-2"}}})
	checkSmallBodyValue(t, p, data, GossipReply{From: "dp-0", Digest: []gossip.Cursor{{Origin: "dp-1"}}, Records: ds, Stored: 2})
	checkSmallBodyValue(t, p, data, SnapshotReply{From: "dp-0", Dispatches: ds})
	checkWALEntryValue(t, data)
}

// recordDeclines is bytes the record codec never writes, each as the
// value of every record body: gob's verdict must stand on all of them.
var recordDeclines = [][]byte{
	{}, {0, 0}, {1}, // nothing, a byte after the end, no end
	{2, 0, 0},                    // an empty slice written out
	{2, 5, 0, 0},                 // five records claimed, two bytes left
	{2, 1, 1, 0, 0, 0},           // an empty JobID written out
	{2, 1, 4, 0x80, 0, 0},        // CPUs as a long zero
	{1, 2, 'd', 'p', 3, 1, 0, 0}, // a field past the last
	{1, 0, 1, 0, 0},              // a second field for ReportArgs
	{1, 6, 1, 'x', 0, 0},         // a time of one byte
	{1, 8, 0, 0, 0},              // Seq zero written out
	{1, 1, 0x80, 0, 2, 0},        // a Dispatch field 0x80 on
}

func TestRecordBodiesDeclineWhatGobMustRead(t *testing.T) {
	freshNameTable(t)
	p := newCodecProbe(t)
	for _, data := range recordDeclines {
		checkRecordBodies(t, p, data)
	}
	// A receiver that is not zero: gob decodes into what is there.
	own, _ := SnapshotReply{From: "dp-0", Dispatches: recordSet(time.Time{})}.AppendGobValue(nil)
	if (&SnapshotReply{Dispatches: make([]gruber.Dispatch, 0, 4)}).ReadGobValue(own) {
		t.Error("ReadGobValue read into a reply that held records")
	}
}

// FuzzRecordBodies holds every record body's hook and the write-ahead
// decoder to gob on arbitrary bytes, as a value framed as this process
// frames one and as a whole body: each declines or agrees with a fresh
// gob.Decoder, leaves a refused receiver alone, and the next valid body
// still decodes.
func FuzzRecordBodies(f *testing.F) {
	freshNameTable(f)
	p := newCodecProbe(f)
	ds := recordSet(time.Date(2005, 11, 12, 0, 0, 0, 0, time.FixedZone("CET", 3600)))
	for _, v := range []gobValueAppender{
		ReportArgs{Dispatch: ds[0]},
		ExchangeArgs{From: "dp-1", Dispatches: ds},
		GossipArgs{From: "dp-1", Round: 9, Digest: []gossip.Cursor{{Origin: "dp-0", Seq: 1}}, Records: ds[:2],
			Members: []gossip.Member{{Name: "dp-2", Addr: "dp-2"}}},
		GossipReply{From: "dp-0", Records: ds[2:], Stored: 1},
		SnapshotReply{From: "dp-0", Dispatches: ds},
		walEntry{D: ds[0], Logged: true},
	} {
		own, _ := v.AppendGobValue(nil)
		f.Add(own)
		f.Add(own[:len(own)-1])
		f.Add(append(bytes.Clone(own), 0))
	}
	for _, data := range recordDeclines {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkRecordBodies(t, p, data) })
}

// TestRecordPathsAllocate pins what a record costs on the paths that
// carry one: reading a 250-record exchange allocates its JobIDs and
// nothing else once its slice goes back, an exchange that carries USLAs
// is declined before anything is built, and writing a record — a
// Report's body, a write-ahead entry — allocates nothing.
func TestRecordPathsAllocate(t *testing.T) {
	freshNameTable(t)
	at := time.Date(2005, 11, 12, 9, 30, 0, 0, time.UTC)
	args := ExchangeArgs{From: "dp-1"}
	for i := 0; i < 250; i++ {
		args.Dispatches = append(args.Dispatches, gruber.Dispatch{JobID: fmt.Sprintf("client-%03d-job-%05d", i%16, i),
			Site: fmt.Sprintf("site-%03d", i%300), Owner: fmt.Sprintf("vo-%02d.group-%02d", i%10, i%7), CPUs: 1 + i%4,
			Runtime: time.Duration(i) * time.Minute, At: at.Add(time.Duration(i) * time.Second).Local(), Origin: "dp-1", Seq: uint64(i + 1)})
	}
	val, ok := args.AppendGobValue(nil)
	if !ok {
		t.Fatal("AppendGobValue declined")
	}
	read := func() {
		var a ExchangeArgs
		if !a.ReadGobValue(val) || len(a.Dispatches) != 250 {
			t.Fatal("ReadGobValue declined its own value")
		}
		putRecords(a.Dispatches)
	}
	read() // the names go into the table
	if n := testing.AllocsPerRun(50, read); n > 251 {
		t.Errorf("reading a 250-record ExchangeArgs: %.0f allocations, want at most 251", n)
	}
	withUSLAs := args
	withUSLAs.USLAs = []usla.Entry{{Provider: "site-001", Consumer: usla.MustParsePath("atlas.higgs"),
		Resource: usla.CPU, Share: usla.Share{Percent: 30, Kind: usla.UpperLimit}}}
	_, valueOf := valueFraming(t, withUSLAs)
	uslaVal := valueOf(freshGob(t, withUSLAs))
	if n := testing.AllocsPerRun(50, func() {
		var a ExchangeArgs
		if a.ReadGobValue(uslaVal) {
			t.Fatal("ReadGobValue took an ExchangeArgs that carries USLAs")
		}
	}); n != 0 {
		t.Errorf("declining a 250-record ExchangeArgs with USLAs: %.0f allocations, want 0", n)
	}

	en := walEntry{D: args.Dispatches[7], Logged: true}
	var enc entryEncoder
	dst, err := enc.appendEntry(nil, &en)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { dst, _ = enc.appendEntry(dst[:0], &en) }); n != 0 {
		t.Errorf("appendEntry: %.0f allocations, want 0", n)
	}
	report := ReportArgs{Dispatch: en.D}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(50, func() { buf, _ = report.AppendGobValue(buf[:0]) }); n != 0 {
		t.Errorf("ReportArgs.AppendGobValue: %.0f allocations, want 0", n)
	}
}

// recordBodiesWithoutHook returns, sorted, the struct types files
// declare with a gruber.Dispatch or []gruber.Dispatch field, each with
// what it lacks of the value hook: AppendGobValue on the value and
// ReadGobValue on the pointer. walEntry needs only the writer: replay
// reads the log with gob (walDecoder), as its writer may have numbered
// its types otherwise. found lists every such type.
func recordBodiesWithoutHook(files []*ast.File) (found, missing []string) {
	isRecord := func(e ast.Expr) bool {
		if a, ok := e.(*ast.ArrayType); ok && a.Len == nil {
			e = a.Elt
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && pkg.Name == "gruber" && sel.Sel.Name == "Dispatch"
	}
	methods := map[string]bool{} // "T.Method" or "*T.Method"
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			recv := fn.Recv.List[0].Type
			star := ""
			if s, ok := recv.(*ast.StarExpr); ok {
				recv, star = s.X, "*"
			}
			if id, ok := recv.(*ast.Ident); ok {
				methods[star+id.Name+"."+fn.Name.Name] = true
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !slices.ContainsFunc(st.Fields.List, func(fl *ast.Field) bool { return isRecord(fl.Type) }) {
				return true
			}
			name := ts.Name.Name
			found = append(found, name)
			if !methods[name+".AppendGobValue"] {
				missing = append(missing, name+" lacks AppendGobValue on its value")
			}
			if !methods["*"+name+".ReadGobValue"] && name != "walEntry" {
				missing = append(missing, name+" lacks ReadGobValue on its pointer")
			}
			return true
		})
	}
	slices.Sort(found)
	slices.Sort(missing)
	return found, missing
}

// TestEveryRecordBodyCarriesTheHook holds the package to one record
// codec: every struct it declares outside its tests with a record field
// (the wire bodies, and the write-ahead entry's writer) carries the value
// hook, so none of them falls back to gob's reflection unnoticed. A planted body
// without the hook is reported.
func TestEveryRecordBodyCarriesTheHook(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	found, missing := recordBodiesWithoutHook(files)
	for _, m := range missing {
		t.Error(m)
	}
	for _, want := range []string{"ExchangeArgs", "GossipArgs", "GossipReply", "ReportArgs", "SnapshotReply", "walEntry"} {
		if !slices.Contains(found, want) {
			t.Errorf("the rule did not find %s: it has stopped seeing record fields", want)
		}
	}

	plant, err := parser.ParseFile(fset, "plant.go", `package digruber
type syncArgs struct {
	From    string
	Records []gruber.Dispatch
}
func (a syncArgs) AppendGobValue(b []byte) ([]byte, bool) { return b, false }
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, missing = recordBodiesWithoutHook(append(files, plant))
	if want := []string{"syncArgs lacks ReadGobValue on its pointer"}; !slices.Equal(missing, want) {
		t.Errorf("with a planted body: %q, want %q", missing, want)
	}
}
