package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/onoff"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serveSlice is the simulated time per pacer step on serve-2k; each
// step is followed by one /metrics scrape and one snapshot read.
const serveSlice = time.Minute

// buildServed assembles the facility `dcsim -facility -users -retry
// budget -serve` runs, at n servers: 10 servers per rack, a zone per
// pair of racks, one CRAC, 15-second telemetry, request-level admission
// with budget retries and the breaker, and the coordinated manager with
// DVFS, behind a serve.Server.
func buildServed(seed int64, n, workers int, traced bool, allocs *runtimeCounters) (*facility, error) {
	const perRack = 10
	if n%perRack != 0 {
		return nil, fmt.Errorf("served facility: %d servers is not a multiple of %d", n, perRack)
	}
	racks := n / perRack
	zones := (racks + 1) / 2
	srvCfg := server.DefaultConfig()
	f := &facility{e: sim.NewEngine(seed), pool: par.New(workers), servers: n}
	if traced {
		f.tr = newTracer(allocs)
		f.tr.attach(f.e)
	}
	load := diurnal(seed, 0.15, 0.50)
	classes := workload.DefaultRequestClasses()
	mix := workload.DefaultClassMix()
	mgrCfg := core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      n,
		Queue:          workload.DefaultQueueModel(),
		SLA:            100 * time.Millisecond,
		DecisionPeriod: time.Minute,
		Mode:           core.ModeCoordinated,
		DVFSTarget:     0.8,
		Trigger:        onoff.DelayTrigger{High: 60 * time.Millisecond, Low: 25 * time.Millisecond, StepUp: 1, StepDown: 1, Min: 1, Max: n},
		InitialOn:      n / 2,
		Pool:           f.pool,
		ClassDemand: func(now time.Duration) [workload.NumClasses]float64 {
			var shares, fresh [workload.NumClasses]float64
			mix.Split(load(now)*float64(n), &shares)
			for c := range fresh {
				fresh[c] = workload.UsersPerTick(shares[c]/classes[c].ServiceTime.Seconds(), time.Minute)
			}
			return fresh
		},
	}
	adm, err := workload.NewAdmission(workload.DefaultAdmissionConfig())
	if err != nil {
		f.close()
		return nil, err
	}
	rcfg := workload.DefaultRetryConfig(workload.RetryBudget)
	rcfg.Breaker = workload.DefaultBreakerConfig()
	if mgrCfg.Retry, err = workload.NewRetryLoop(rcfg, adm, f.e.RNG().Fork("retry")); err != nil {
		f.close()
		return nil, err
	}

	room := cooling.RoomConfig{PhysicsTick: cooling.DefaultPhysicsTick, CRACs: []cooling.CRACConfig{cooling.DefaultCRAC("c0")}}
	for z := 0; z < zones; z++ {
		room.Zones = append(room.Zones, cooling.DefaultZone(fmt.Sprintf("z%d", z)))
		room.Sensitivity = append(room.Sensitivity, []float64{0.9})
	}
	zoneOfRack := make([]int, racks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r / 2
	}
	plant := cooling.DefaultPlantConfig()
	plant.FanRatedW = 50 * float64(n)
	f.dc, err = core.NewDataCenter(f.e, core.DataCenterConfig{
		Name:           "dcsim",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: racks,
			RackRatedW: float64(perRack) * srvCfg.PeakPower * 1.1, Oversubscription: 1,
		},
		Room:        room,
		ZoneOfRack:  zoneOfRack,
		Plant:       plant,
		SampleEvery: 15 * time.Second,
		Pool:        f.pool,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.tr != nil {
		f.tr.mark(f.e, cooling.DefaultPhysicsTick, phPhysics)
		f.tr.mark(f.e, 15*time.Second, phSample)
	}
	if _, err := f.dc.Attach(); err != nil {
		f.close()
		return nil, err
	}
	if f.mgr, err = core.NewManagerForFleet(f.e, mgrCfg, f.dc.Fleet(), nil); err != nil {
		f.close()
		return nil, err
	}
	if f.tr != nil {
		f.tr.mark(f.e, time.Minute, phManager)
	}
	f.mgr.Start()
	return f, f.serve()
}

// servedJob runs one serve-2k job: build, then alternate AdvanceTo with
// one scrape and one snapshot read until the horizon.
func servedJob(rc runConfig, workers int, traced bool, o *outcome) (*facility, time.Duration, *servedLog, error) {
	start := time.Now()
	f, err := buildServed(rc.seed, rc.size.serveServers, workers, traced, rc.rc)
	if err != nil {
		return nil, 0, nil, err
	}
	setup := time.Since(start)
	log, err := servedLoop(rc, rc.size.serveHorizon, serveSlice,
		func(t time.Duration) error { return f.advance(t, true) }, f.h, true, o)
	if err != nil {
		f.close()
		return nil, 0, nil, err
	}
	return f, setup, log, nil
}

// expectServed checks what a served job must satisfy at any seed: a
// decision every simulated minute, energy spent, and goodput within
// what was offered.
func expectServed(o *outcome, fp fingerprint, horizon time.Duration) {
	o.expect(fp.Decisions == int64(horizon/time.Minute) && fp.EnergyJ > 0 &&
		fp.GoodputUsers > 0 && fp.GoodputUsers <= fp.OfferedUsers,
		"serve-2k: implausible outcome %+v", fp)
}

func measureServe(rc runConfig, o *outcome) error {
	var setup, wall, srvh, heap []float64
	var scrapes []time.Duration
	var ref *fingerprint
	sh := srvHours(rc.size.serveServers, rc.size.serveHorizon)
	err := jobLoop(rc.budget, rc.size.minJobs, func() error {
		f, s, log, err := servedJob(rc, rc.workers, false, o)
		if err != nil {
			return err
		}
		fp := f.fingerprint(rc.size.serveHorizon)
		heap = append(heap, rc.rc.liveHeapMB())
		runtime.KeepAlive(f)
		f.close()
		checkSame(o, "serve-2k", fp, ref, pinAt(rc, servePin))
		if ref == nil {
			ref = &fp
			expectServed(o, fp, rc.size.serveHorizon)
		}
		setup = append(setup, s.Seconds())
		wall = append(wall, log.timed.Seconds())
		srvh = append(srvh, sh/log.timed.Seconds())
		scrapes = append(scrapes, log.scrape...)
		return nil
	})
	if err != nil {
		return err
	}
	o.set("srvh_per_s", median(srvh))
	o.noteSpread("srvh_per_s", srvh)
	o.set("suite_s", median(wall))
	o.set("setup_s", median(setup))
	o.set("peak_heap_mb", median(heap))
	o.reportScrapes(msOf(scrapes), rc.size.minJobs*steps(rc.size.serveHorizon, serveSlice))
	o.note("serve-2k: %d jobs of %d servers x %v; fingerprint %+v", len(wall), rc.size.serveServers, rc.size.serveHorizon, *ref)
	return nil
}

// traceServe runs one job to warm the process up, then traceReps jobs
// untraced (the pacer and request timings come from the last) and
// traced (the per-phase attribution comes from the last).
func traceServe(rc runConfig, o *outcome) error {
	h := rc.size.serveHorizon
	sh := srvHours(rc.size.serveServers, h)
	f, _, _, err := servedJob(rc, rc.workers, false, o)
	if err != nil {
		return err
	}
	f.close()
	t := &facilityTrace{rc: rc, o: o, job: servedJob, horizon: h, pin: pinAt(rc, servePin)}
	plain, f, log, err := t.reps("serve-2k untraced", rc.workers, false)
	if err != nil {
		return err
	}
	res := f.mgr.Result(h)
	f.close()
	expectServed(o, *t.ref, h)
	o.set("serve.advance_p50_ms", median(msOf(log.advance)))
	o.set("serve.snapshot_p50_ms", median(msOf(log.snapshot)))
	o.set("serve.metrics_bytes", float64(log.bytes))
	if u := res.Users; u != nil && u.Offered > 0 {
		o.set("workload.goodput_frac", u.Goodput/u.Offered)
		o.set("workload.retry_amplification", u.RetryAmplification)
		o.set("workload.breaker_trips", float64(u.BreakerTrips))
	}

	traced, f, log, err := t.reps("serve-2k traced", rc.workers, true)
	if err != nil {
		return err
	}
	o.reportTracer(f.tr, "serve.pacer_s")
	st := f.dc.Store().Stats()
	o.set("telemetry.agg_buckets", float64(st.AggBuckets))
	o.set("telemetry.raw_points", float64(st.RawPoints))
	setKernel(o, f.fingerprint(h))
	f.close()
	o.set("trace.overhead_frac", 1-plain/traced)
	o.set("proc.alloc_mb_per_srvh", log.proc.allocMB/sh)
	o.set("proc.gc_cpu_frac", log.proc.gcCPUFrac)
	o.note("serve-2k, median of %d jobs: untraced %.0f srv-h/s, traced %.0f srv-h/s", traceReps, sh/plain, sh/traced)
	return nil
}
