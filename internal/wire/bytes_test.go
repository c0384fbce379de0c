package wire

import (
	"testing"
	"time"

	"digruber/internal/tsdb"
	"digruber/internal/vtime"
)

// TestByteAccountingBothEnds: the server's per-method ledger and a
// shared ClientMetrics ledger agree with each other — what the client
// sent is what the server received, method by method — and the totals
// surface on Stats/ClientStats and, for the client, as registered
// series (the server's series are a decision point's to register:
// TestServerMetricsRegistration).
func TestByteAccountingBothEnds(t *testing.T) {
	clock := vtime.NewReal()
	mem := NewMem()
	srv := NewServer("server-node", Instant(), clock)
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	Handle(srv, "swallow", func(r echoReq) (echoResp, error) { return echoResp{}, nil })

	m := NewClientMetrics()
	cli := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "server-node",
		Addr: "dp-0", Transport: mem, Clock: clock, Metrics: m,
	})
	t.Cleanup(cli.Close)

	for i := 0; i < 3; i++ {
		if _, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "payload-bytes"}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Call[echoReq, echoResp](cli, "swallow", echoReq{Msg: "payload-bytes"}, time.Second); err != nil {
		t.Fatal(err)
	}

	ss := srv.Stats()
	if ss.BytesIn == 0 || ss.BytesOut == 0 {
		t.Fatalf("server totals BytesIn=%d BytesOut=%d; want both > 0", ss.BytesIn, ss.BytesOut)
	}
	cs := m.Stats()
	if cs.BytesSent != ss.BytesIn {
		t.Fatalf("client sent %d bytes but server received %d", cs.BytesSent, ss.BytesIn)
	}
	if cs.BytesReceived != ss.BytesOut {
		t.Fatalf("client received %d bytes but server sent %d", cs.BytesReceived, ss.BytesOut)
	}

	sm, cm := srv.MethodIO(), m.MethodIO()
	if len(sm) != 2 || len(cm) != 2 {
		t.Fatalf("per-method maps: server %v client %v; want 2 methods each", sm, cm)
	}
	if sm["echo"].In != cm["echo"].Out || sm["echo"].Out != cm["echo"].In {
		t.Fatalf("echo ledgers disagree: server %+v client %+v", sm["echo"], cm["echo"])
	}
	if sm["echo"].In != 3*(sm["swallow"].In) {
		t.Fatalf("3 echo requests should carry 3x one swallow request: %+v vs %+v", sm["echo"], sm["swallow"])
	}
	// swallow's zero-valued response body encodes smaller than its echo.
	if sm["swallow"].Out >= sm["echo"].Out/3 {
		t.Fatalf("swallow response bytes %d not smaller than an echo's %d", sm["swallow"].Out, sm["echo"].Out/3)
	}

	// The registered series expose the same numbers.
	reg := tsdb.New(0)
	m.Register(reg, "cli")
	reg.Sample(clock.Now())
	for name, want := range map[string]float64{
		"cli/bytes_sent":     float64(cs.BytesSent),
		"cli/bytes_received": float64(cs.BytesReceived),
	} {
		p, ok := reg.Latest(name)
		if !ok || p.V != want {
			t.Errorf("%s = %v (ok=%v), want %v", name, p.V, ok, want)
		}
	}
}

// TestByteAccountingNilSafe: nil receivers take every bytes path.
func TestByteAccountingNilSafe(t *testing.T) {
	var m *ClientMetrics
	m.onBytesSent("x", 10)
	m.onBytesReceived("x", 10)
	if got := m.MethodIO(); got != nil {
		t.Fatalf("nil MethodIO = %v", got)
	}
}
