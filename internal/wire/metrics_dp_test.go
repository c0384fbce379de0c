package wire_test

import (
	"testing"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// TestServerMetricsRegistration: the server series are registered by the
// decision point that owns the server (dp/<name>/wire/...), so that is
// the registration under test — sampled, the series read what the
// server's own Stats report and what the calling end's ledger counted.
func TestServerMetricsRegistration(t *testing.T) {
	clock := vtime.NewReal()
	mem := wire.NewMem()
	reg := tsdb.New(0)
	dp, err := digruber.New(digruber.Config{
		Name: "dp-0", Addr: "dp-0", Transport: mem, Clock: clock,
		Profile: wire.Instant(), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.Engine().UpdateSites([]grid.Status{{Name: "site-000", TotalCPUs: 8, FreeCPUs: 8}}, clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)

	m := wire.NewClientMetrics()
	cli := wire.NewClient(wire.ClientConfig{
		Node: "client-node", ServerNode: "dp-0", Addr: "dp-0",
		Transport: mem, Clock: clock, Metrics: m,
	})
	t.Cleanup(cli.Close)
	for i := 0; i < 3; i++ {
		args := digruber.ScheduleArgs{JobID: "j", Owner: "atlas", CPUs: 1, Runtime: time.Minute}
		if _, err := wire.Call[digruber.ScheduleArgs, digruber.ScheduleReply](cli, digruber.MethodSchedule, args, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// The server decrements in-flight in a defer that runs after the
	// response send, so it can still read 1 for an instant after a
	// synchronous call returns — wait for it to settle before sampling.
	for deadline := time.Now().Add(5 * time.Second); dp.Status().InFlight != 0; {
		if time.Now().After(deadline) {
			t.Fatal("server did not quiesce")
		}
		time.Sleep(time.Millisecond)
	}
	reg.Sample(clock.Now())

	st, cs := dp.Status(), m.Stats()
	if st.Received != 3 || cs.BytesSent == 0 || cs.BytesReceived == 0 {
		t.Fatalf("status %+v, client ledger %+v; want 3 received and bytes both ways", st, cs)
	}
	for name, want := range map[string]float64{
		"received":                     float64(st.Received),
		"completed":                    float64(st.Completed),
		"shed":                         0,
		"conn_lost":                    0,
		"failed":                       0,
		"inflight":                     0,
		"queue":                        0,
		"bytes_in":                     float64(cs.BytesSent),
		"bytes_out":                    float64(cs.BytesReceived),
		"method/ScheduleJob/bytes_in":  float64(m.MethodIO()[digruber.MethodSchedule].Out),
		"method/ScheduleJob/bytes_out": float64(m.MethodIO()[digruber.MethodSchedule].In),
	} {
		p, ok := reg.Latest("dp/dp-0/wire/" + name)
		if !ok || p.V != want {
			t.Errorf("dp/dp-0/wire/%s = %v (ok=%v), want %v", name, p.V, ok, want)
		}
	}
}
