package wire

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/vtime"
)

type echoReq struct{ Msg string }
type echoResp struct{ Msg string }

// newPair wires a server and client over an in-memory transport with no
// emulated network or container cost.
func newPair(t *testing.T, profile StackProfile, network *netsim.Network, clock vtime.Clock) (*Server, *Client) {
	t.Helper()
	mem := NewMem()
	srv := NewServer("server-node", profile, clock)
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })
	cli := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "server-node",
		Addr: "dp-0", Transport: mem, Network: network, Clock: clock,
	})
	t.Cleanup(cli.Close)
	return srv, cli
}

func TestEchoRoundTrip(t *testing.T) {
	srv, cli := newPair(t, Instant(), nil, vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) {
		return echoResp{Msg: r.Msg}, nil
	})
	resp, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "hello grid"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "hello grid" {
		t.Fatalf("echo = %q", resp.Msg)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, cli := newPair(t, Instant(), nil, vtime.NewReal())
	_, err := Call[echoReq, echoResp](cli, "nope", echoReq{}, time.Second)
	if err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	srv, cli := newPair(t, Instant(), nil, vtime.NewReal())
	Handle(srv, "fail", func(r echoReq) (echoResp, error) {
		return echoResp{}, errors.New("USLA violation")
	})
	_, err := Call[echoReq, echoResp](cli, "fail", echoReq{}, time.Second)
	if err == nil || err.Error() != "USLA violation" {
		t.Fatalf("err = %v, want USLA violation", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	srv, cli := newPair(t, Instant(), nil, vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) {
		return echoResp{Msg: r.Msg}, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			resp, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: want}, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if resp.Msg != want {
				errs <- fmt.Errorf("cross-talk: got %q want %q", resp.Msg, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTimeoutWhenServerSlow(t *testing.T) {
	profile := StackProfile{Name: "slow", BaseOverhead: 500 * time.Millisecond, MaxConcurrent: 1}
	srv, cli := newPair(t, profile, nil, vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	_, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "x"}, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestOverloadShedding(t *testing.T) {
	profile := StackProfile{Name: "tiny", BaseOverhead: time.Second, MaxConcurrent: 1, QueueLimit: 1}
	srv, cli := newPair(t, profile, nil, vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })

	var wg sync.WaitGroup
	var mu sync.Mutex
	var overloaded int
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, 100*time.Millisecond)
			if errors.Is(err, ErrOverloaded) {
				mu.Lock()
				overloaded++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if overloaded == 0 {
		t.Fatal("expected at least one ErrOverloaded with queue limit 1")
	}
	if shed := srv.Stats().Shed; shed == 0 {
		t.Fatal("server did not record shed requests")
	}
}

func TestWANDelayIsPaid(t *testing.T) {
	p := netsim.Profile{Name: "fixed", MedianLatency: 30 * time.Millisecond}
	network := netsim.New(1, p)
	srv, cli := newPair(t, Instant(), network, vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	start := time.Now()
	if _, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, time.Second); err != nil {
		t.Fatal(err)
	}
	if rt := time.Since(start); rt < 60*time.Millisecond {
		t.Fatalf("round trip %v, want >= 2x30ms WAN latency", rt)
	}
}

func TestLossBecomesTimeout(t *testing.T) {
	p := netsim.Profile{Name: "lossy", MedianLatency: time.Millisecond, LossProb: 1}
	network := netsim.New(1, p)
	srv, cli := newPair(t, Instant(), network, vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	start := time.Now()
	_, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if e := time.Since(start); e < 40*time.Millisecond {
		t.Fatalf("lost call returned after %v, should wait out the timeout", e)
	}
}

func TestServerStatsCount(t *testing.T) {
	srv, cli := newPair(t, Instant(), nil, vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	for i := 0; i < 10; i++ {
		if _, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Received != 10 || srv.completed.Load() != 10 {
		t.Fatalf("stats = %+v, %d completed", st, srv.completed.Load())
	}
}

func TestClientClosed(t *testing.T) {
	_, cli := newPair(t, Instant(), nil, vtime.NewReal())
	cli.Close()
	_, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, time.Second)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDialUnknownAddress(t *testing.T) {
	mem := NewMem()
	cli := NewClient(ClientConfig{Node: "a", ServerNode: "b", Addr: "nowhere", Transport: mem, Clock: vtime.NewReal()})
	_, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, time.Second)
	if err == nil {
		t.Fatal("expected dial error")
	}
}

func TestMemAddressReuseRejected(t *testing.T) {
	mem := NewMem()
	l, err := mem.Listen("dp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Listen("dp"); err == nil {
		t.Fatal("double bind should fail")
	}
	l.Close()
	// After close the address is free again.
	l2, err := mem.Listen("dp")
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	l2.Close()
}

func TestTCPTransportRoundTrip(t *testing.T) {
	srv := NewServer("srv", Instant(), vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	l, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	defer srv.Close()
	cli := NewClient(ClientConfig{Node: "c", ServerNode: "srv", Addr: l.Addr(), Transport: TCP{}, Clock: vtime.NewReal()})
	defer cli.Close()
	resp, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "over tcp"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "over tcp" {
		t.Fatalf("resp = %q", resp.Msg)
	}
}

func TestServiceTimeComputation(t *testing.T) {
	p := StackProfile{AuthOverhead: 100 * time.Millisecond, BaseOverhead: 50 * time.Millisecond, PerKB: 10 * time.Millisecond}
	if got := p.ServiceTime(0); got != 150*time.Millisecond {
		t.Fatalf("empty payload service time = %v", got)
	}
	if got := p.ServiceTime(2048); got != 170*time.Millisecond {
		t.Fatalf("2KB payload service time = %v", got)
	}
}

func TestGT4SlowerThanGT3(t *testing.T) {
	// The paper notes the GT4 prerelease was slower than GT3.2.
	const payload = 20 << 10
	if GT4().ServiceTime(payload) <= GT3().ServiceTime(payload) {
		t.Fatal("GT4 prerelease profile should be slower than GT3")
	}
	if GT4C().ServiceTime(payload) >= GT3().ServiceTime(payload) {
		t.Fatal("GT4C profile should be much faster than GT3")
	}
}

func TestScaledClockCompressesServiceTime(t *testing.T) {
	// A 2-second container cost at 100x speedup should cost ~20ms real.
	clock := vtime.NewScaled(time.Now(), 100)
	profile := StackProfile{Name: "slow", BaseOverhead: 2 * time.Second, MaxConcurrent: 1}
	srv, cli := newPair(t, profile, nil, clock)
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	start := time.Now()
	if _, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("compressed call took %v real", e)
	}
}
