package main

import (
	"time"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/serve"
	"repro/internal/trace"
)

const (
	geoSites = 4
	geoEpoch = 30 * time.Minute
	// geoDipped is the site the brownout hits.
	geoDipped = 1
	// geoLoginsPerServer keeps the geo experiments' load per server
	// (2800 logins/s peak over 184 servers) at any fleet size, so the
	// pooled fleet runs tight and the dipped site is pushed into
	// rejections and breaker trips.
	geoLoginsPerServer = 2800.0 / 184
)

// geoConfig is the geo-brownout shape at perSite servers per site:
// four fleet-only sites around the clock, admission plus budget retry
// with the breaker everywhere, weighted routing, and a 70% capacity
// dip at one site from a third of the horizon for a sixth of it.
//
// The global trace has no flash crowds: it is normalized to its peak,
// so a seed that draws a flash crowd scales the rest of the day down,
// and the federation's work would differ by up to half between seeds.
func geoConfig(seed int64, perSite int, horizon time.Duration, parallel bool) geo.Config {
	names := []string{"us-east", "eu-west", "ap-south", "us-west"}
	tr := trace.DefaultMessengerConfig()
	tr.FlashCrowds = 0
	cfg := geo.Config{
		Trace:         tr,
		Seed:          seed,
		Epoch:         geoEpoch,
		Tick:          time.Minute,
		Horizon:       horizon,
		Mode:          geo.RouteWeighted,
		PeakLoginRate: geoLoginsPerServer * float64(geoSites*perSite),
		Parallel:      parallel,
	}
	for i := 0; i < geoSites; i++ {
		sc := geo.SiteConfig{
			Name:            names[i],
			TZOffset:        time.Duration(i) * 24 * time.Hour / geoSites,
			PopulationShare: float64(2 + i%3),
			FleetSize:       perSite,
			Retry:           true,
		}
		if i == geoDipped {
			sc.Faults = []fault.Event{{Kind: fault.CapacityDip, At: horizon / 3, Duration: horizon / 6, Frac: 0.7}}
		}
		cfg.Sites = append(cfg.Sites, sc)
	}
	return cfg
}

// geoPrint is the simulated outcome of a geo job: the federation's
// Result totals and the kernel events of every site.
type geoPrint struct {
	Epochs       int64
	EnergyKWh    float64
	PeakPowerW   float64
	OfferedUsers float64
	GoodputUsers float64
	RejectedFrac float64
	GramsCO2e    float64
	BreakerTrips int64
	Events       uint64
	PeakPending  int
	Decisions    int64
	Switches     int
}

// geoLog is what one geo job measured.
type geoLog struct {
	setup     time.Duration
	timed     time.Duration // epoch advances and scrapes
	epochs    []time.Duration
	scrapes   []time.Duration // CPU time (see get)
	imbalance float64         // mean over epochs of max/mean per-site events
	heapMB    float64         // live heap at the end of the job
	proc      procDelta
	print     geoPrint
	retryAmp  float64
}

// geoJob builds a federation, advances it epoch by epoch with one
// /metrics scrape of a serve.GeoServer after each epoch, and rolls it
// up. With tr set, the site engines' events are attributed to the
// manager (an event that advanced the site's decision count) or other;
// tr is only used serially.
func geoJob(rc runConfig, parallel bool, tr *tracer, o *outcome) (*geoLog, error) {
	start := time.Now()
	fed, err := geo.New(geoConfig(rc.seed, rc.size.geoPerSite, rc.size.geoHorizon, parallel))
	if err != nil {
		return nil, err
	}
	defer fed.Close()
	srv, err := serve.NewGeoServer(fed, serve.Options{Speedup: 1})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	log := &geoLog{setup: time.Since(start)}
	sites := fed.Sites()
	if tr != nil {
		for _, s := range sites {
			mgr := s.Manager()
			seen := mgr.Decisions()
			tr.attachBy(s.Engine(), func() phase {
				if d := mgr.Decisions(); d != seen {
					seen = d
					return phManager
				}
				return phOther
			})
		}
	}
	prev := make([]uint64, len(sites))
	var imbalance float64
	before := rc.rc.read()
	for t := geoEpoch; ; t += geoEpoch {
		t = min(t, rc.size.geoHorizon)
		step := func() error { return fed.AdvanceTo(t) }
		begin := time.Now()
		if tr != nil {
			err = tr.bracket(step)
		} else {
			err = step()
		}
		d := time.Since(begin)
		if err != nil {
			return nil, err
		}
		log.epochs = append(log.epochs, d)
		var sum, most float64
		for i, s := range sites {
			n := s.Engine().Processed()
			delta := float64(n - prev[i])
			prev[i] = n
			sum += delta
			most = max(most, delta)
		}
		if sum > 0 {
			imbalance += most / (sum / float64(len(sites)))
		}
		r := get(h, "/metrics")
		log.scrapes = append(log.scrapes, r.cpu)
		log.timed += d + r.wall
		o.op(scrapeOK(r.code, r.body))
		if t == rc.size.geoHorizon {
			break
		}
	}
	log.proc = deltaOf(before, rc.rc.read())
	log.imbalance = imbalance / float64(len(log.epochs))
	if err := fed.InvariantErr(); err != nil {
		return nil, err
	}
	res := fed.Result()
	p := geoPrint{
		Epochs:       res.Epochs,
		EnergyKWh:    res.GlobalEnergyKWh,
		PeakPowerW:   res.GlobalPeakPowerW,
		OfferedUsers: res.OfferedUsers,
		GoodputUsers: res.GoodputUsers,
		RejectedFrac: res.RejectedFrac,
		GramsCO2e:    res.GramsCO2e,
	}
	var fresh float64
	for i, s := range sites {
		p.BreakerTrips += res.Sites[i].BreakerTrips
		p.Events += s.Engine().Processed()
		p.PeakPending = max(p.PeakPending, s.Engine().PeakPending())
		p.Decisions += s.Manager().Decisions()
		ons, offs := s.Fleet().Switches()
		p.Switches += ons + offs
		fresh += s.Retry().FreshUsers()
	}
	if fresh > 0 {
		log.retryAmp = res.OfferedUsers / fresh
	}
	log.print = p
	log.heapMB = rc.rc.liveHeapMB()
	return log, nil
}

// expectGeo checks what a geo job must satisfy at any seed: every
// epoch crossed, energy spent, goodput within what was offered.
func expectGeo(o *outcome, rc runConfig, p geoPrint) {
	o.expect(p.Epochs == int64(steps(rc.size.geoHorizon, geoEpoch)) && p.EnergyKWh > 0 &&
		p.GoodputUsers > 0 && p.GoodputUsers <= p.OfferedUsers,
		"geo-4x10k: implausible outcome %+v", p)
}

func geoSrvHours(rc runConfig) float64 {
	return srvHours(geoSites*rc.size.geoPerSite, rc.size.geoHorizon)
}

func measureGeo(rc runConfig, o *outcome) error {
	var setup, wall, srvh, heap []float64
	var scrapes []time.Duration
	var ref *geoPrint
	sh := geoSrvHours(rc)
	err := jobLoop(rc.budget, rc.size.minJobs, func() error {
		log, err := geoJob(rc, true, nil, o)
		if err != nil {
			return err
		}
		checkSame(o, "geo-4x10k", log.print, ref, pinAt(rc, geoPin))
		if ref == nil {
			ref = &log.print
			expectGeo(o, rc, log.print)
		}
		setup = append(setup, log.setup.Seconds())
		wall = append(wall, log.timed.Seconds())
		srvh = append(srvh, sh/log.timed.Seconds())
		scrapes = append(scrapes, log.scrapes...)
		heap = append(heap, log.heapMB)
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
	o.reportScrapes(msOf(scrapes), rc.size.minJobs*steps(rc.size.geoHorizon, geoEpoch))
	o.note("geo-4x10k: %d jobs of %dx%d servers x %v; fingerprint %+v", len(wall), geoSites, rc.size.geoPerSite, rc.size.geoHorizon, *ref)
	return nil
}

// traceGeo runs one job to warm the process up, then traceReps jobs
// with parallel sites (epoch times and the per-site event imbalance
// come from the last) and with serial sites (the speed-up's base), and
// one job with serial sites traced (per-event manager attribution,
// which needs the sites to take turns so allocation and time belong to
// one event).
func traceGeo(rc runConfig, o *outcome) error {
	sh := geoSrvHours(rc)
	if _, err := geoJob(rc, true, nil, o); err != nil {
		return err
	}
	var ref *geoPrint
	reps := func(what string, parallel bool) (float64, *geoLog, error) {
		var secs []float64
		var log *geoLog
		for i := 0; i < traceReps; i++ {
			var err error
			if log, err = geoJob(rc, parallel, nil, o); err != nil {
				return 0, nil, err
			}
			checkSame(o, what, log.print, ref, pinAt(rc, geoPin))
			if ref == nil {
				ref = &log.print
			}
			secs = append(secs, log.timed.Seconds())
		}
		return median(secs), log, nil
	}
	par, last, err := reps("geo-4x10k parallel", true)
	if err != nil {
		return err
	}
	expectGeo(o, rc, *ref)
	epochs := tailOf(msOf(last.epochs), tailPercentile(len(last.epochs)))
	o.set("geo.epoch_p50_ms", median(msOf(last.epochs)))
	o.set("geo.epoch_tail_ms", epochs.Value)
	o.note("geo.epoch_tail_ms is p%g of %d epochs", epochs.Percentile, epochs.N)
	o.set("geo.site_event_imbalance", last.imbalance)
	o.set("sim.events", float64(ref.Events))
	o.set("sim.peak_pending", float64(ref.PeakPending))
	o.set("core.decisions", float64(ref.Decisions))
	o.set("core.switches", float64(ref.Switches))
	o.set("workload.goodput_frac", ref.GoodputUsers/ref.OfferedUsers)
	o.set("workload.retry_amplification", last.retryAmp)
	o.set("workload.breaker_trips", float64(ref.BreakerTrips))

	serial, _, err := reps("geo-4x10k serial", false)
	if err != nil {
		return err
	}
	o.set("par.geo_site_speedup", serial/par)

	tr := newTracer(rc.rc)
	traced, err := geoJob(rc, false, tr, o)
	if err != nil {
		return err
	}
	checkSame(o, "geo-4x10k traced", traced.print, ref, nil)
	o.set("core.manager_s", tr.busy[phManager].Seconds())
	o.set("core.manager_alloc_mb", float64(tr.allocB[phManager])/1e6)
	o.set("core.other_s", tr.busy[phOther].Seconds())
	o.set("geo.barrier_s", tr.busy[phStep].Seconds())
	o.reconcile(tr, true)
	o.set("trace.overhead_frac", 1-serial/traced.timed.Seconds())
	o.set("proc.alloc_mb_per_srvh", traced.proc.allocMB/sh)
	o.set("proc.gc_cpu_frac", traced.proc.gcCPUFrac)
	o.note("geo-4x10k: parallel %.0f srv-h/s and serial %.0f srv-h/s (medians of %d jobs), serial traced %.0f srv-h/s",
		sh/par, sh/serial, traceReps, sh/traced.timed.Seconds())
	return nil
}
