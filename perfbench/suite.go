package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
)

// suiteIDs is the experiment suite: every experiment at the commit that
// defined the benchmark except telemetry, which times its own
// wall-clock ingest and so reads differently on every run. The list is
// fixed so later commits run the same suite.
var suiteIDs = []string{
	"ablate-dc", "ablate-forecast", "ablate-hysteresis", "ablate-ladder",
	"animoto", "capping", "consolidate", "crac", "distributed", "dvfs",
	"fault-crac", "fault-outage", "fault-rack", "fault-sensor",
	"fig1", "fig2", "fig3", "fig4",
	"geo", "geo-brownout", "geo-carbon", "geo-diurnal",
	"hetero", "idle60", "interfere", "oversub", "parking", "pathology",
	"pue2", "retry-budget", "retry-storm", "sensornet",
	"tier2", "tiers", "users-flash", "users-qmin", "users-surge",
}

// suitePrint is the simulated outcome of a suite pass: the kernel
// counts of every job and a digest of every report, in suite order.
type suitePrint struct {
	Events      uint64
	PeakPending int
	Digest      string
}

// suitePass is one harness.Run over the suite.
type suitePass struct {
	wall   time.Duration
	jobs   []time.Duration // per-experiment job wall times
	heapMB float64         // peak live heap seen while the pass ran
	print  suitePrint
	report []string // per experiment, in suite order
	errs   []string // failed jobs
}

// runSuitePass runs the suite once the way cmd/experiments does by
// default: invariants armed, one replication per experiment, Parallel
// at GOMAXPROCS. A sampler reads the live heap every 5 ms while
// the pass runs. A job that fails is recorded in the pass, not
// returned: the other jobs still ran.
func runSuitePass(rc runConfig, ids []string) *suitePass {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		counters := newRuntimeCounters()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, counters.read().live)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	start := time.Now()
	sums, _ := harness.Run(harness.Config{IDs: ids, BaseSeed: rc.seed, Reps: 1, Parallel: rc.workers})
	wall := time.Since(start)
	close(stop)
	wg.Wait()
	p := &suitePass{wall: wall, heapMB: float64(peak) / 1e6}
	h := sha256.New()
	for _, s := range sums {
		for _, r := range s.Reps {
			p.jobs = append(p.jobs, time.Duration(r.WallSeconds*float64(time.Second)))
			p.report = append(p.report, r.Report)
			if r.Err != "" {
				p.errs = append(p.errs, s.ID+": "+r.Err)
			}
			p.print.Events += r.Events
			p.print.PeakPending = max(p.print.PeakPending, r.PeakPending)
			h.Write([]byte(r.Report))
		}
	}
	p.print.Digest = hex.EncodeToString(h.Sum(nil)[:8])
	return p
}

// countJobs counts a pass's experiment jobs as operations.
func (o *outcome) countJobs(p *suitePass) {
	o.attempted += len(p.jobs) - len(p.errs)
	for _, e := range p.errs {
		o.op(fmt.Errorf("suite: %s", e))
	}
}

// measureSuite runs one cold pass (the set-up: the first pass pays the
// process's one-time costs) and then passes until the budget is spent.
func measureSuite(rc runConfig, o *outcome) error {
	ids := rc.size.suite
	cold := runSuitePass(rc, ids)
	o.countJobs(cold)
	checkSame(o, "suite cold pass", cold.print, nil, pinAt(rc, suitePin))
	o.expect(cold.print.Events > 0, "suite: no kernel events")
	var wall, rate, heap []float64
	jobs := make([][]float64, len(ids)) // per experiment, over passes
	heap = append(heap, cold.heapMB)
	err := jobLoop(rc.budget, rc.size.minJobs, func() error {
		p := runSuitePass(rc, ids)
		o.countJobs(p)
		checkSame(o, "suite", p.print, &cold.print, nil)
		wall = append(wall, p.wall.Seconds())
		rate = append(rate, float64(p.print.Events)/p.wall.Seconds())
		for i, d := range p.jobs {
			jobs[i] = append(jobs[i], ms(d))
		}
		heap = append(heap, p.heapMB)
		return nil
	})
	if err != nil {
		return err
	}
	o.set("srvh_per_s", median(rate))
	o.set("suite_s", median(wall))
	o.noteSpread("suite_s", wall)
	o.set("setup_s", cold.wall.Seconds())
	o.set("peak_heap_mb", median(heap))
	// The suite has no scrapes; its requests are experiment jobs. Each
	// experiment's median job time over the passes is one sample. They
	// span four orders of magnitude with wide gaps between experiments,
	// so which experiment is the median one changes from run to run;
	// the typical job is their geometric mean instead, and the tail is
	// the slowest experiment.
	perExp := make([]float64, len(jobs))
	for i, xs := range jobs {
		perExp[i] = median(xs)
	}
	o.set("scrape_p50_ms", geomean(perExp))
	o.set("scrape_tail_ms", slices.Max(perExp))
	o.note("suite: %d passes of %d experiments; fingerprint %+v", len(wall)+1, len(ids), cold.print)
	return nil
}

// traceSuite runs one harness pass and then every experiment alone
// through exp.Run, so each experiment's time is measured without
// another job beside it; every report must equal the pass's.
func traceSuite(rc runConfig, o *outcome) error {
	ids := rc.size.suite
	before := rc.rc.read()
	pass := runSuitePass(rc, ids)
	proc := deltaOf(before, rc.rc.read())
	o.countJobs(pass)
	checkSame(o, "suite", pass.print, nil, pinAt(rc, suitePin))
	o.set("sim.events", float64(pass.print.Events))
	o.set("sim.peak_pending", float64(pass.print.PeakPending))
	o.set("proc.gc_cpu_frac", proc.gcCPUFrac)
	var alone time.Duration
	for i, id := range ids {
		start := time.Now()
		res, err := exp.Run(id, rc.seed)
		d := time.Since(start)
		if !o.op(err) {
			continue
		}
		alone += d
		o.set("exp."+id+"_s", d.Seconds())
		o.expect(res.Report() == pass.report[i], "suite: %s run alone reports differently than in the harness pass", id)
	}
	o.note("suite: harness pass %.3fs on %d workers; experiments alone %.3fs in sum", pass.wall.Seconds(), rc.workers, alone.Seconds())
	return nil
}
