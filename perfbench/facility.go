package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// facility is one assembled facility job: the engine, the facility and
// its manager, and a serve.Server over them for scrapes.
type facility struct {
	e       *sim.Engine
	dc      *core.DataCenter
	mgr     *core.Manager
	pool    *par.Pool
	srv     *serve.Server
	h       http.Handler
	tr      *tracer
	servers int
}

func (f *facility) close() { f.pool.Close() }

// advance drives the job to target, through the serve.Server when
// viaServer is set (the served path) and on the engine otherwise.
func (f *facility) advance(target time.Duration, viaServer bool) error {
	step := func() error { return f.e.Run(target) }
	if viaServer {
		step = func() error { return f.srv.AdvanceTo(target) }
	}
	if f.tr != nil {
		return f.tr.bracket(step)
	}
	return step()
}

// diurnal is the facility demand as a fraction of fleet capacity: the
// cosine day of bench_scale_test.go between lo and hi, with its peak
// hour drawn from the seed within ±1 h of 14:00.
func diurnal(seed int64, lo, hi float64) func(time.Duration) float64 {
	peak := 14 + sim.NewRNG(seed).Fork("perfbench/demand").Uniform(-1, 1)
	return func(now time.Duration) float64 {
		h := now.Hours() - 24*float64(int(now.Hours()/24))
		return lo + (hi-lo)*0.5*(1+math.Cos(2*math.Pi*(h-peak)/24))
	}
}

// buildFig4 assembles the facility of bench_scale_test.go at n servers:
// 100 racks in 4 zones, rack caps with a CapEnforcer, the coordinated
// manager, 1-minute telemetry frames, and PUE probes every 15 minutes,
// all on one engine seeded from seed. workers is the sharded-loop width.
// When traced, markers are placed before DataCenter.Attach and
// Manager.Start and the benchmark-owned handlers label their events.
func buildFig4(seed int64, n, workers int, traced bool, allocs *runtimeCounters) (*facility, error) {
	const racks = 100
	const cadence = time.Minute
	perRack := n / racks
	if perRack < 1 || perRack*racks != n {
		return nil, fmt.Errorf("fig4 facility: %d servers is not a multiple of %d racks", n, racks)
	}
	srvCfg := server.DefaultConfig()
	airScale := float64(n) / 40
	zone := func(name string) cooling.ZoneConfig {
		z := cooling.DefaultZone(name)
		z.Airflow *= airScale
		return z
	}
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 2_000 * airScale
	zoneOfRack := make([]int, racks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r % 4
	}
	f := &facility{e: sim.NewEngine(seed), pool: par.New(workers), servers: n}
	if traced {
		f.tr = newTracer(allocs)
		f.tr.attach(f.e)
	}
	var err error
	f.dc, err = core.NewDataCenter(f.e, core.DataCenterConfig{
		Name:           "dc-fig4",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 2, PDUsPerUPS: 5, RacksPerPDU: 10,
			RackRatedW: float64(perRack) * srvCfg.PeakPower * 1.05, Oversubscription: 1,
		},
		Room: cooling.RoomConfig{
			Zones:       []cooling.ZoneConfig{zone("z0"), zone("z1"), zone("z2"), zone("z3")},
			CRACs:       []cooling.CRACConfig{cooling.DefaultCRAC("c0"), cooling.DefaultCRAC("c1")},
			Sensitivity: [][]float64{{0.6, 0.3}, {0.5, 0.4}, {0.4, 0.5}, {0.3, 0.6}},
			PhysicsTick: cooling.DefaultPhysicsTick,
		},
		ZoneOfRack:  zoneOfRack,
		Plant:       plant,
		SampleEvery: cadence,
		Pool:        f.pool,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.tr != nil {
		f.tr.mark(f.e, cooling.DefaultPhysicsTick, phPhysics)
		f.tr.mark(f.e, cadence, phSample)
	}
	if _, err := f.dc.Attach(); err != nil {
		f.close()
		return nil, err
	}
	if err := f.dc.PreferCoolingSensitiveZones(); err != nil {
		f.close()
		return nil, err
	}
	rackServers := make([][]*server.Server, racks)
	for i, s := range f.dc.Fleet().Servers() {
		rackServers[f.dc.RackOfServer(i)] = append(rackServers[f.dc.RackOfServer(i)], s)
	}
	for _, rack := range f.dc.Topology().Racks {
		rack.SetCap(float64(perRack) * srvCfg.PeakPower * 0.93)
	}
	enforcer, err := core.NewCapEnforcer(f.dc.Topology().Racks, rackServers)
	if err != nil {
		f.close()
		return nil, err
	}
	f.e.Every(cadence, func(eng *sim.Engine) {
		f.tr.own(phEnforce)
		enforcer.Enforce(eng.Now())
	})
	load := diurnal(seed, 0.2, 0.75)
	demand := func(now time.Duration) float64 { return load(now) * float64(n) * srvCfg.Capacity }
	f.mgr, err = core.NewManagerForFleet(f.e, core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      n,
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: cadence,
		Mode:           core.ModeCoordinated,
		InitialOn:      n / 2,
		Trigger:        onoff.DelayTrigger{High: 60 * time.Millisecond, Low: 25 * time.Millisecond, StepUp: 1, StepDown: 1, Min: 1, Max: n},
	}, f.dc.Fleet(), demand)
	if err != nil {
		f.close()
		return nil, err
	}
	if f.tr != nil {
		f.tr.mark(f.e, cadence, phManager)
	}
	f.mgr.Start()
	f.e.Every(15*time.Minute, func(*sim.Engine) {
		f.tr.own(phPUE)
		_, _, _ = f.dc.PUEAt(18, 0.5)
	})
	return f, f.serve()
}

// serve puts a serve.Server over the facility for scrapes.
func (f *facility) serve() error {
	var err error
	f.srv, err = serve.NewServer(serve.Source{Engine: f.e, Fleet: f.dc.Fleet(), Manager: f.mgr, DC: f.dc},
		serve.Options{Speedup: 1})
	if err != nil {
		f.close()
		return err
	}
	f.h = f.srv.Handler()
	return nil
}

// fingerprint is the simulated outcome of a facility job: every field
// is a pure function of the seed and the workload size, so two runs of
// the same job must agree exactly whatever the host, worker count or
// tracing.
type fingerprint struct {
	EnergyJ     float64
	Events      uint64
	PeakPending int
	Trips       int
	Decisions   int64
	SwitchOns   int
	SwitchOffs  int
	// Request-level outcomes; zero for the fluid facility.
	OfferedUsers float64
	GoodputUsers float64
	BreakerTrips int64
}

func (f *facility) fingerprint(horizon time.Duration) fingerprint {
	res := f.mgr.Result(horizon)
	p := fingerprint{
		EnergyJ:     f.dc.Fleet().EnergyJ(),
		Events:      f.e.Processed(),
		PeakPending: f.e.PeakPending(),
		Trips:       f.dc.Fleet().Trips(),
		Decisions:   f.mgr.Decisions(),
		SwitchOns:   res.SwitchOns,
		SwitchOffs:  res.SwitchOffs,
	}
	if u := res.Users; u != nil {
		p.OfferedUsers, p.GoodputUsers, p.BreakerTrips = u.Offered, u.Goodput, u.BreakerTrips
	}
	if f.tr != nil {
		// Report the kernel counts net of the markers: every marker is
		// a periodic event that sits in the queue for the whole run.
		p.Events -= f.tr.fired
		p.PeakPending -= f.tr.markers
	}
	return p
}
