package wire

import (
	"testing"
	"time"

	"digruber/internal/vtime"
)

// TestByteAccountingBothEnds: the server's totals and a shared
// ClientMetrics ledger agree with each other — what the client sent is
// what the server received — and the client's per-method split adds up
// to them (the server's series are a decision point's to register:
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
	cm := m.MethodIO()
	if len(cm) != 2 {
		t.Fatalf("client per-method map %v; want 2 methods", cm)
	}
	if cm["echo"].Out+cm["swallow"].Out != ss.BytesIn || cm["echo"].In+cm["swallow"].In != ss.BytesOut {
		t.Fatalf("client per-method ledger %v does not add up to the server's totals %+v", cm, ss)
	}
	if cm["echo"].Out != 3*(cm["swallow"].Out) {
		t.Fatalf("3 echo requests should carry 3x one swallow request: %+v vs %+v", cm["echo"], cm["swallow"])
	}
	// swallow's zero-valued response body encodes smaller than its echo.
	if cm["swallow"].In >= cm["echo"].In/3 {
		t.Fatalf("swallow response bytes %d not smaller than an echo's %d", cm["swallow"].In, cm["echo"].In/3)
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
