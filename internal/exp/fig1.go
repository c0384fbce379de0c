package exp

import (
	"fmt"
	"sync/atomic"
	"time"

	"digruber/internal/diperf"
	"digruber/internal/netsim"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// Fig1Config shapes the Figure 1 baseline: DiPerF driving plain GT3.2
// service instance creation (no GRUBER logic at all), establishing the
// raw capacity of one toolkit container — the paper measured a peak of
// O(10) requests per second with response times that climb under load.
type Fig1Config struct {
	Scale   Scale
	Profile wire.StackProfile
	Seed    int64
}

// instanceReq models the small payload of a service instance creation.
type instanceReq struct {
	Service string
	Payload []byte
}

// instanceResp acknowledges with an instance handle.
type instanceResp struct {
	Handle string
}

// Fig 1's bodies take their gob numbers after digruber's, at init.
func init() { wire.Register(instanceReq{}, instanceResp{}) }

// RunFig1 executes the baseline and returns the DiPerF result.
func RunFig1(cfg Fig1Config) (diperf.Result, error) {
	if cfg.Scale.Sites == 0 {
		cfg.Scale = BenchScale()
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = wire.GT3()
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	clock := vtime.NewScaled(Epoch, cfg.Scale.Speedup)
	network := netsim.New(cfg.Seed, netsim.PlanetLab())
	mem := wire.NewMem()

	server := wire.NewServer("gt3-host", cfg.Profile, clock)
	var count atomic.Int64 // handler runs on every server worker
	wire.Handle(server, "CreateInstance", func(r instanceReq) (instanceResp, error) {
		return instanceResp{Handle: fmt.Sprintf("%s-instance-%d", r.Service, count.Add(1))}, nil
	})
	l, err := mem.Listen("fig1/gt3")
	if err != nil {
		return diperf.Result{}, err
	}
	go server.Serve(l)
	defer func() { server.Close(); l.Close() }()

	clients := make([]*wire.Client, cfg.Scale.Clients)
	for i := range clients {
		clients[i] = wire.NewClient(wire.ClientConfig{
			Node:       fmt.Sprintf("tester-%03d", i),
			ServerNode: "gt3-host",
			Addr:       "fig1/gt3",
			Transport:  mem,
			Network:    network,
			Clock:      clock,
		})
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	payload := make([]byte, 200) // ≈0.2 KiB instance-creation request
	duration := cfg.Scale.Duration / 2
	stagger := duration / 2 / time.Duration(max(cfg.Scale.Clients-1, 1))
	return diperf.Run(diperf.Config{
		Testers:      cfg.Scale.Clients,
		Stagger:      stagger,
		Interarrival: time.Second,
		Duration:     duration,
		Window:       cfg.Scale.Window,
		Clock:        clock,
	}, func(t, seq int) diperf.OpResult {
		_, err := wire.Call[instanceReq, instanceResp](clients[t], "CreateInstance",
			instanceReq{Service: "counter", Payload: payload}, 2*time.Minute)
		return diperf.OpResult{Handled: err == nil, Err: err}
	})
}
