package digruber

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/trace"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// The wire package memoises gob's per-type work behind wire.Call and
// wire.Handle. These tests hold it, for every payload a decision point
// registers, to what it replaces: the bytes of a fresh gob.Encoder and
// the value of a fresh gob.Decoder. The bodies are read where they are
// public — a raw wire.Server.RegisterCtx handler receives what wire.Call
// encoded and its return value is what wire.Call decodes.

// codecProbe is a raw method that records the request body and answers
// with the body the test staged (the request itself when none is).
type codecProbe struct {
	cli *wire.Client

	mu     sync.Mutex
	got    []byte
	staged []byte
}

func newCodecProbe(t testing.TB) *codecProbe {
	t.Helper()
	p := &codecProbe{}
	mem := wire.NewMem()
	srv := wire.NewServer("probe-node", wire.Instant(), vtime.NewReal())
	srv.RegisterCtx("probe", func(_ wire.Ctx, body []byte) ([]byte, error) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.got = body
		if p.staged != nil {
			return p.staged, nil
		}
		return body, nil
	})
	l, err := mem.Listen("probe")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	p.cli = wire.NewClient(wire.ClientConfig{Node: "c", ServerNode: "probe-node", Addr: "probe", Transport: mem, Clock: vtime.NewReal()})
	t.Cleanup(func() { p.cli.Close(); srv.Close(); l.Close() })
	return p
}

// call sends v through wire.Call and returns the body the call put on
// the wire, and the value it decoded from the (echoed or staged) reply or
// the error it met.
func call[T any](p *codecProbe, v T, staged []byte) ([]byte, T, error) {
	p.mu.Lock()
	p.staged = staged
	p.mu.Unlock()
	reply, err := wire.Call[T, T](p.cli, "probe", v, time.Minute)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.got, reply, err
}

// roundTrip is call for a reply that must decode.
func roundTrip[T any](t testing.TB, p *codecProbe, v T, staged []byte) ([]byte, T) {
	t.Helper()
	body, reply, err := call(p, v, staged)
	if err != nil {
		t.Fatalf("%T: %v", v, err)
	}
	return body, reply
}

func freshGob(t testing.TB, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inOwnFraming reports whether body is this build's definitions of v's
// type and one value message: the bodies and records the codec reads,
// where it refuses any other.
func inOwnFraming(t testing.TB, v interface{}, body []byte) bool {
	t.Helper()
	whole := freshGob(t, v)
	msg, ok := bytes.CutPrefix(body, whole[:wire.ValueOffset(whole)])
	return ok && wire.ValueOffset(msg) == 0
}

// bodyVerdict fails t unless got and err, what the codec made of body as
// a T, are what its contract asks: under this build's definitions of T,
// a fresh gob.Decoder's verdict and value (compared by same, or by
// reflect.DeepEqual when same is nil); under any others, a refusal with
// wire.ErrForeignBody.
func bodyVerdict[T any](t *testing.T, body []byte, got T, err error, same func(a, b T) bool) {
	t.Helper()
	if !inOwnFraming(t, *new(T), body) {
		if !errors.Is(err, wire.ErrForeignBody) {
			t.Fatalf("%T from % x, not this build's framing: %v, want wire.ErrForeignBody", got, body, err)
		}
		return
	}
	var fresh T
	freshErr := gob.NewDecoder(bytes.NewReader(body)).Decode(&fresh)
	if (err == nil) != (freshErr == nil) || errors.Is(err, wire.ErrForeignBody) {
		t.Fatalf("%T from % x: the codec: %v; a fresh gob.Decoder: %v", got, body, err, freshErr)
	}
	if same == nil {
		same = func(a, b T) bool { return reflect.DeepEqual(a, b) }
	}
	if err == nil && !same(got, fresh) {
		t.Fatalf("%T from % x: the codec decoded %+v; a fresh gob.Decoder reads %+v", got, body, got, fresh)
	}
}

func freshDecode[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// fill sets every exported field reachable from v from rng; slices get n
// elements and maps one entry (gob writes maps in iteration order, so a
// larger one has no single encoding to compare with).
func fill(v reflect.Value, rng *rand.Rand, n int) {
	if t, ok := v.Addr().Interface().(*time.Time); ok {
		*t = time.Unix(rng.Int63n(1<<32), rng.Int63n(1e9)).UTC()
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", rng.Intn(1e6)))
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(rng.Int63n(1<<20) - 1<<10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(rng.Intn(200)))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(rng.NormFloat64() * 100)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fill(v.Index(i), rng, n)
		}
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(k, rng, n)
		fill(e, rng, n)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), rng, n)
			}
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

func filled[T any](seed int64, n int) T {
	var v T
	fill(reflect.ValueOf(&v).Elem(), rand.New(rand.NewSource(seed)), n)
	return v
}

// payloadCase checks one payload type: its zero value and seeded values
// with 1, 3 and (for the one reply that carries the grid) 300 elements
// per slice, a hundred calls each.
func payloadCase[T any](sizes ...int) func(*testing.T, *codecProbe) {
	return func(t *testing.T, p *codecProbe) {
		values := []T{*new(T)}
		for i, n := range append([]int{1, 3}, sizes...) {
			values = append(values, filled[T](int64(i+1), n))
		}
		type decoded struct {
			got  T
			body []byte
		}
		var earlier []decoded
		for call := 1; call <= 100; call++ {
			for _, v := range values {
				want := freshGob(t, v)
				body, got := roundTrip(t, p, v, nil)
				if !bytes.Equal(body, want) {
					t.Fatalf("call %d: wire.Call sent\n%x\na fresh gob.Encoder writes\n%x", call, body, want)
				}
				if fresh := freshDecode[T](t, want); !reflect.DeepEqual(got, fresh) {
					t.Fatalf("call %d: wire.Call decoded\n%+v\na fresh gob.Decoder reads\n%+v", call, got, fresh)
				}
				if call == 1 || call == 50 {
					earlier = append(earlier, decoded{got, want})
				}
			}
		}
		for _, d := range earlier {
			if !reflect.DeepEqual(d.got, freshDecode[T](t, d.body)) {
				t.Fatal("a value decoded earlier changed under later decodes")
			}
		}
	}
}

// scheduleArgsNext is ScheduleArgs as a later build might send it.
type scheduleArgsNext struct {
	JobID   string
	Owner   string
	CPUs    int
	Runtime time.Duration
	Tenant  string
}

type codecLeaf struct{ N int }

// ifacePayload reaches an interface; no registered body does
// (wire.Register refuses one), but a caller's might.
type ifacePayload struct{ V interface{} }

func init() { gob.Register(codecLeaf{}) }

func TestBodyCodecMatchesFreshGob(t *testing.T) {
	freshNameTable(t) // the filled bodies' names are made up
	p := newCodecProbe(t)
	cases := []struct {
		name string
		run  func(*testing.T, *codecProbe)
	}{
		{"QueryArgs", payloadCase[QueryArgs]()},
		{"QueryReply", payloadCase[QueryReply](300)},
		{"ReportArgs", payloadCase[ReportArgs]()},
		{"ReportReply", payloadCase[ReportReply]()},
		{"ScheduleArgs", payloadCase[ScheduleArgs]()},
		{"ScheduleReply", payloadCase[ScheduleReply]()},
		{"ExchangeArgs", payloadCase[ExchangeArgs](64)},
		{"ExchangeReply", payloadCase[ExchangeReply]()},
		{"GossipArgs", payloadCase[GossipArgs](64)},
		{"GossipReply", payloadCase[GossipReply](64)},
		{"SnapshotArgs", payloadCase[SnapshotArgs]()},
		{"SnapshotReply", payloadCase[SnapshotReply](64)},
		{"StatusArgs", payloadCase[StatusArgs]()},
		{"StatusReply", payloadCase[StatusReply]()},
		{"ProposeArgs", payloadCase[ProposeArgs]()},
		{"ProposeReply", payloadCase[ProposeReply]()},
		{"PublishedArgs", payloadCase[PublishedArgs]()},
		{"PublishedReply", payloadCase[PublishedReply]()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, p) })
	}

	// A reply whose type definitions differ from this build's (a field
	// appended), which gob would decode, is refused, and the codec still
	// serves this build's bodies afterwards.
	t.Run("foreign definitions", func(t *testing.T) {
		mine := filled[ScheduleArgs](7, 1)
		next := scheduleArgsNext{JobID: "job-next", Owner: "uc.cs", CPUs: 4, Runtime: time.Hour, Tenant: "dropped"}
		for i := 0; i < 3; i++ {
			if _, got, err := call(p, mine, freshGob(t, next)); !errors.Is(err, wire.ErrForeignBody) || got != (ScheduleArgs{}) {
				t.Fatalf("foreign reply: decoded %+v, %v; want wire.ErrForeignBody", got, err)
			}
			if body, got := roundTrip(t, p, mine, nil); got != mine || !bytes.Equal(body, freshGob(t, mine)) {
				t.Fatalf("after a foreign reply: sent %x, decoded %+v", body, got)
			}
		}
	})

	// gob sends an interface's concrete type definition with the first
	// value that carries it; a primed encoder would leave it out of the
	// second body.
	t.Run("interface bypass", func(t *testing.T) {
		for i, v := range []ifacePayload{{V: codecLeaf{N: 1}}, {V: codecLeaf{N: 2}}, {}, {V: "builtin"}, {V: codecLeaf{N: 3}}} {
			body, got := roundTrip(t, p, v, nil)
			if want := freshGob(t, v); !bytes.Equal(body, want) {
				t.Fatalf("value %d: sent\n%x\nwant\n%x", i, body, want)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("value %d decoded to %+v", i, got)
			}
		}
	})
}

// TestBodyCodecConcurrent runs the encode/decode pair from 8 goroutines
// (under -race in CI): the typed handler's decode and encode on the
// server, wire.Call's on the client, with bodies checked against the set
// a fresh encoder produces.
func TestBodyCodecConcurrent(t *testing.T) {
	freshNameTable(t) // every reply's site is a name of its own
	const goroutines, calls = 8, 60
	mem := wire.NewMem()
	srv := wire.NewServer("codec-node", wire.Instant(), vtime.NewReal())
	wire.Handle(srv, MethodSchedule, func(a ScheduleArgs) (ScheduleReply, error) {
		return ScheduleReply{Site: a.JobID + "@" + a.Owner, OK: a.CPUs%2 == 0}, nil
	})
	replies := make([]QueryReply, goroutines)
	queries := make([][]byte, goroutines)
	fresh := map[string]bool{}
	for g := range replies {
		replies[g] = QueryReply{Loads: filled[[]gruber.SiteLoad](int64(g), 300)}
		queries[g] = freshGob(t, QueryArgs{Owner: "uc.cs", CPUs: g})
		fresh[string(freshGob(t, replies[g]))] = true
	}
	wire.Handle(srv, MethodQuery, func(a QueryArgs) (QueryReply, error) { return replies[a.CPUs], nil })
	l, err := mem.Listen("codec")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cli := wire.NewClient(wire.ClientConfig{Node: "c", ServerNode: "codec-node", Addr: "codec", Transport: mem, Clock: vtime.NewReal()})
			defer cli.Close()
			for i := 0; i < calls; i++ {
				a := ScheduleArgs{JobID: fmt.Sprintf("job-%d-%d", g, i), Owner: "uc.cs", CPUs: i, Runtime: time.Duration(i)}
				r, err := wire.Call[ScheduleArgs, ScheduleReply](cli, MethodSchedule, a, time.Minute)
				if want := (ScheduleReply{Site: a.JobID + "@uc.cs", OK: i%2 == 0}); err != nil || r != want {
					t.Errorf("schedule %d/%d: %+v, %v", g, i, r, err)
					return
				}
				q, err := wire.Call[QueryArgs, QueryReply](cli, MethodQuery, QueryArgs{Owner: "uc.cs", CPUs: g}, time.Minute)
				if err != nil || !reflect.DeepEqual(q, replies[g]) {
					t.Errorf("query %d/%d: %d loads, %v", g, i, len(q.Loads), err)
					return
				}
				// The raw reply to the same request: what the typed
				// handler's encode put on the wire.
				raw, err := cli.CallCtx(trace.SpanContext{}, MethodQuery, queries[g], time.Minute)
				if err != nil || !fresh[string(raw)] {
					t.Errorf("query %d/%d: reply body is not a fresh encoder's (%d bytes, %v)", g, i, len(raw), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// bodyBytesChild is set in the environment of the child process
// TestBodyBytesDoNotDependOnTheProcess starts.
const bodyBytesChild = "DIGRUBER_BODY_BYTES_CHILD"

// registeredBodies returns, one line per type init registers, the body
// of a seeded value of the type: the bytes a fresh gob.Encoder writes
// for it.
func registeredBodies(t *testing.T) []string {
	var lines []string
	for i, v := range wireTypes {
		rv := reflect.New(reflect.TypeOf(v)).Elem()
		fill(rv, rand.New(rand.NewSource(int64(i+1))), 2)
		lines = append(lines, fmt.Sprintf("%T %x", v, freshGob(t, rv.Interface())))
	}
	return lines
}

// TestBodyBytesDoNotDependOnTheProcess: a child process encodes types of
// its own before any body, as a program that used gob for something
// else first would, and every registered body's bytes still equal this
// process's. ScheduleArgs holds gob's first user id, 64: its definition
// opens with the one-byte header -64.
func TestBodyBytesDoNotDependOnTheProcess(t *testing.T) {
	if os.Getenv(bodyBytesChild) != "" {
		type unrelated struct {
			Name  string
			Sizes map[string][]uint16
		}
		for _, v := range []any{unrelated{Name: "first", Sizes: map[string][]uint16{"a": {1}}}, []float32{1}, map[int]string{1: "x"}} {
			if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, line := range registeredBodies(t) {
			fmt.Println("body", line)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBodyBytesDoNotDependOnTheProcess$")
	cmd.Env = append(os.Environ(), bodyBytesChild+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	var child []string
	for _, line := range strings.Split(string(out), "\n") {
		if body, ok := strings.CutPrefix(line, "body "); ok {
			child = append(child, body)
		}
	}
	own := registeredBodies(t)
	if len(child) != len(own) {
		t.Fatalf("the child wrote %d bodies, this process %d", len(child), len(own))
	}
	for i := range own {
		if child[i] != own[i] {
			t.Errorf("the child's body differs from this process's:\n child %s\n  here %s", child[i], own[i])
		}
	}
	if b := freshGob(t, ScheduleArgs{}); len(b) < 2 || b[1] != 0x7f {
		t.Errorf("ScheduleArgs' body opens % x, want its definition under type id 64 (header 7f)", b[:min(len(b), 4)])
	}
}
