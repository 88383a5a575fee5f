package main

import (
	"fmt"
	"slices"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	budget  time.Duration // how long the measured loop runs
	workers int           // GOMAXPROCS: the default sharded-loop width
	size    sizes
	rc      *runtimeCounters
}

// outcome collects one run's metrics and operation counts.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	notes     []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed check.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and reports whether it succeeded.
func (o *outcome) op(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.fail("%v", err)
		return false
	}
	return true
}

// expect counts one check of a simulated outcome that holds at any
// seed, such as a decision every tick or goodput within what was
// offered.
func (o *outcome) expect(ok bool, format string, args ...any) {
	if !ok {
		o.op(fmt.Errorf(format, args...))
	}
}

// checkSame counts one check that a job's fingerprint equals the run's
// first job (ref) and, where one is pinned, the pinned value.
func checkSame[T comparable](o *outcome, what string, got T, ref, pinned *T) {
	switch {
	case ref != nil && got != *ref:
		o.op(fmt.Errorf("%s: fingerprint %+v differs from the run's first job %+v", what, got, *ref))
	case pinned != nil && got != *pinned:
		o.op(fmt.Errorf("%s: fingerprint %+v differs from the pinned %+v", what, got, *pinned))
	default:
		o.op(nil)
	}
}

// jobLoop repeats job until the budget is spent, and at least min times.
func jobLoop(budget time.Duration, min int, job func() error) error {
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		if err := job(); err != nil {
			return err
		}
	}
	return nil
}

// noteSpread notes the quartiles of a per-job series, so a run's own
// spread can be read beside its median.
func (o *outcome) noteSpread(what string, xs []float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	o.note("%s over %d jobs or passes: min %.4g, q1 %.4g, median %.4g, q3 %.4g, max %.4g",
		what, n, s[0], s[n/4], median(s), s[(3*n)/4], s[n-1])
}

// reportScrapes sets the scrape latency metrics from the run's scrape
// latencies in the order they were made. minSamples is the fewest
// scrapes a run can make; it fixes the tail percentile, which is read
// per block of samples (see blockTail).
func (o *outcome) reportScrapes(lat []float64, minSamples int) {
	t := blockTail(lat, tailPercentile(minSamples))
	o.set("scrape_p50_ms", median(lat))
	o.set("scrape_tail_ms", t.Value)
	if t.Blocks > 0 {
		o.note("scrape_tail_ms is the median over %d blocks of p%g of %d samples each (%d samples)", t.Blocks, t.Percentile, tailBlock(t.Percentile), t.N)
	} else {
		o.note("scrape_tail_ms is p%g of %d samples", t.Percentile, t.N)
	}
}

// reportTracer sets the per-phase metrics of a traced facility job and
// reconciles them with the traced wall time. stepMetric names the layer
// that owns the time each step spends after its last event (the serve
// pacer); empty when no layer does and that time is the kernel's own.
func (o *outcome) reportTracer(tr *tracer, stepMetric string) {
	o.set("core.sample_s", tr.busy[phSample].Seconds())
	o.set("core.sample_tail_ms", tailOf(msOf(tr.sampleDur), tailPercentile(len(tr.sampleDur))).Value)
	o.set("core.sample_alloc_mb", float64(tr.allocB[phSample])/1e6)
	o.set("core.manager_s", tr.busy[phManager].Seconds())
	o.set("core.manager_alloc_mb", float64(tr.allocB[phManager])/1e6)
	o.set("core.physics_s", tr.busy[phPhysics].Seconds())
	o.set("core.enforce_s", tr.busy[phEnforce].Seconds())
	o.set("core.pue_s", tr.busy[phPUE].Seconds())
	o.set("core.other_s", tr.busy[phOther].Seconds())
	if stepMetric != "" {
		o.set(stepMetric, tr.busy[phStep].Seconds())
	}
	o.reconcile(tr, stepMetric != "")
}

// reconcileMargin is the share of the traced wall time that may go to
// no phase before the run fails its check.
const reconcileMargin = 0.05

// reconcile checks that the phases tr attributed account for the wall
// time of the steps it bracketed. The hook times the gaps between
// events, so every event's time lands in some phase (core.other_s
// when nothing claims it); what can remain is the time each step
// spends after its last event, which counts as attributed only when a
// layer owns it, and the tracer's own counter reads, which are
// reported as such.
func (o *outcome) reconcile(tr *tracer, stepOwned bool) {
	rest := tr.wall - tr.attributed()
	if !stepOwned {
		rest += tr.busy[phStep]
	}
	frac := rest.Seconds() / tr.wall.Seconds()
	o.set("trace.unattributed_frac", frac)
	o.note("trace: wall %.3fs; events %.3fs (markers %.3fs), after the last event of a step %.3fs, counter reads %.3fs; unattributed %.3fs (%.2f%%, margin %.0f%%)",
		tr.wall.Seconds(), tr.eventTime().Seconds(), tr.busy[phMarker].Seconds(), tr.busy[phStep].Seconds(),
		tr.busy[phTrace].Seconds(), rest.Seconds(), 100*frac, 100*reconcileMargin)
	if frac > reconcileMargin || frac < 0 {
		o.fail("trace: %.2f%% of the traced wall time is unattributed (margin %.0f%%)", 100*frac, 100*reconcileMargin)
	}
}
