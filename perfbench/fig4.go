package main

import (
	"runtime"
	"time"
)

// fig4ScrapeEvery is the simulated time between scrapes on facility-10k:
// the facility is scraped the way a monitoring system would watch it,
// rarely enough that the simulation dominates the run.
const fig4ScrapeEvery = 5 * time.Minute

// fig4Job runs one facility-10k job: build, advance to the horizon with
// a scrape every fig4ScrapeEvery, fingerprint. The facility is returned
// open so the caller can read the live heap before releasing it.
func fig4Job(rc runConfig, workers int, traced bool, o *outcome) (*facility, time.Duration, *servedLog, error) {
	start := time.Now()
	f, err := buildFig4(rc.seed, rc.size.fig4Servers, workers, traced, rc.rc)
	if err != nil {
		return nil, 0, nil, err
	}
	setup := time.Since(start)
	log, err := servedLoop(rc, rc.size.fig4Horizon, fig4ScrapeEvery,
		func(t time.Duration) error { return f.advance(t, false) }, f.h, false, o)
	if err != nil {
		f.close()
		return nil, 0, nil, err
	}
	return f, setup, log, nil
}

func srvHours(servers int, horizon time.Duration) float64 {
	return float64(servers) * horizon.Hours()
}

// steps is how many slices of length slice cover horizon.
func steps(horizon, slice time.Duration) int {
	return int((horizon + slice - 1) / slice)
}

func measureFig4(rc runConfig, o *outcome) error {
	var setup, wall, srvh, heap []float64
	var scrapes []time.Duration
	var ref *fingerprint
	err := jobLoop(rc.budget, rc.size.minJobs, func() error {
		f, s, log, err := fig4Job(rc, rc.workers, false, o)
		if err != nil {
			return err
		}
		fp := f.fingerprint(rc.size.fig4Horizon)
		heap = append(heap, rc.rc.liveHeapMB())
		runtime.KeepAlive(f)
		f.close()
		checkSame(o, "facility-10k", fp, ref, pinAt(rc, fig4Pin))
		if ref == nil {
			ref = &fp
			o.expect(fp.Decisions == int64(rc.size.fig4Horizon/time.Minute) && fp.EnergyJ > 0,
				"facility-10k: implausible outcome %+v", fp)
		}
		setup = append(setup, s.Seconds())
		wall = append(wall, log.timed.Seconds())
		srvh = append(srvh, srvHours(f.servers, rc.size.fig4Horizon)/log.timed.Seconds())
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
	o.reportScrapes(msOf(scrapes), rc.size.minJobs*steps(rc.size.fig4Horizon, fig4ScrapeEvery))
	o.note("facility-10k: %d jobs of %d servers x %v; fingerprint %+v", len(wall), rc.size.fig4Servers, rc.size.fig4Horizon, *ref)
	return nil
}

// traceFig4 runs one job to warm the process up, then traceReps jobs
// each untraced, traced at the default width, and traced at width 1.
func traceFig4(rc runConfig, o *outcome) error {
	h := rc.size.fig4Horizon
	f, _, _, err := fig4Job(rc, rc.workers, false, o)
	if err != nil {
		return err
	}
	f.close()
	t := &facilityTrace{rc: rc, o: o, job: fig4Job, horizon: h, pin: pinAt(rc, fig4Pin)}
	plain, f, _, err := t.reps("facility-10k untraced", rc.workers, false)
	if err != nil {
		return err
	}
	f.close()
	o.expect(t.ref.Decisions == int64(h/time.Minute) && t.ref.EnergyJ > 0, "facility-10k: implausible outcome %+v", *t.ref)

	traced, f, log, err := t.reps("facility-10k traced", rc.workers, true)
	if err != nil {
		return err
	}
	o.reportTracer(f.tr, "")
	st := f.dc.Store().Stats()
	o.set("telemetry.agg_buckets", float64(st.AggBuckets))
	o.set("telemetry.raw_points", float64(st.RawPoints))
	setKernel(o, f.fingerprint(h))
	o.set("serve.metrics_bytes", float64(log.bytes))
	f.close()
	sh := srvHours(f.servers, h)
	o.set("trace.overhead_frac", 1-plain/traced)
	o.set("proc.alloc_mb_per_srvh", log.proc.allocMB/sh)
	o.set("proc.gc_cpu_frac", log.proc.gcCPUFrac)

	serial, f, _, err := t.reps("facility-10k width 1", 1, true)
	if err != nil {
		return err
	}
	f.close()
	o.set("par.facility_speedup", serial/traced)
	o.note("facility-10k, median of %d jobs: untraced %.0f srv-h/s, traced %.0f srv-h/s, traced width 1 %.0f srv-h/s",
		traceReps, sh/plain, sh/traced, sh/serial)
	return nil
}

// traceReps is how many jobs a traced run times in each configuration;
// comparisons between configurations use the medians.
const traceReps = 3

// facilityJob builds and runs one job of a facility workload at the
// given sharded-loop width, returning it open with its set-up time and
// loop log.
type facilityJob func(rc runConfig, workers int, traced bool, o *outcome) (*facility, time.Duration, *servedLog, error)

// facilityTrace runs the configurations of a traced facility run. Every
// job's fingerprint must equal the first one's (ref) and the pin.
type facilityTrace struct {
	rc      runConfig
	o       *outcome
	job     facilityJob
	horizon time.Duration
	pin     *fingerprint
	ref     *fingerprint
}

// reps runs traceReps jobs in one configuration and returns the median
// timed seconds, with the last job left open and its log.
func (t *facilityTrace) reps(what string, workers int, traced bool) (float64, *facility, *servedLog, error) {
	var secs []float64
	var f *facility
	var log *servedLog
	for i := 0; i < traceReps; i++ {
		if f != nil {
			f.close()
		}
		var err error
		if f, _, log, err = t.job(t.rc, workers, traced, t.o); err != nil {
			return 0, nil, nil, err
		}
		fp := f.fingerprint(t.horizon)
		checkSame(t.o, what, fp, t.ref, t.pin)
		if t.ref == nil {
			t.ref = &fp
		}
		secs = append(secs, log.timed.Seconds())
	}
	return median(secs), f, log, nil
}

// setKernel reports the kernel and manager counts of a fingerprint.
func setKernel(o *outcome, fp fingerprint) {
	o.set("sim.events", float64(fp.Events))
	o.set("sim.peak_pending", float64(fp.PeakPending))
	o.set("core.decisions", float64(fp.Decisions))
	o.set("core.switches", float64(fp.SwitchOns+fp.SwitchOffs))
}
