// Command perfbench is the repository's benchmark. It runs one named
// closed-loop workload for a fixed wall-clock budget, checks the
// simulated outputs, and prints every end-to-end metric (or, with
// -trace 1, every per-layer metric) as the last line of its output:
//
//	perfbench -workload facility-10k -seed 1 -seconds 28 -trace 0
//
// Everything is measured from outside the simulator, through the
// public APIs of the packages under internal/. README.md in this
// directory explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported on every
// workload (see README.md for what each means off its home workload).
var endToEnd = []metricDef{
	{"srvh_per_s", "1/s"},
	{"suite_s", "s"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
	{"scrape_p50_ms", "ms"},
	{"scrape_tail_ms", "ms"},
}

// perLayer are the metrics of a traced run. A workload that does not
// run a layer reports 0 for its metrics.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.peak_pending", "count"},
		{"core.sample_s", "s"},
		{"core.sample_tail_ms", "ms"},
		{"core.sample_alloc_mb", "MB"},
		{"telemetry.agg_buckets", "count"},
		{"telemetry.raw_points", "count"},
		{"core.manager_s", "s"},
		{"core.manager_alloc_mb", "MB"},
		{"core.physics_s", "s"},
		{"core.enforce_s", "s"},
		{"core.pue_s", "s"},
		{"core.other_s", "s"},
		{"core.decisions", "count"},
		{"core.switches", "count"},
		{"workload.goodput_frac", "frac"},
		{"workload.retry_amplification", "ratio"},
		{"workload.breaker_trips", "count"},
		{"geo.epoch_p50_ms", "ms"},
		{"geo.epoch_tail_ms", "ms"},
		{"geo.site_event_imbalance", "ratio"},
		{"geo.barrier_s", "s"},
		{"serve.advance_p50_ms", "ms"},
		{"serve.snapshot_p50_ms", "ms"},
		{"serve.metrics_bytes", "bytes"},
		{"serve.pacer_s", "s"},
		{"par.facility_speedup", "ratio"},
		{"par.geo_site_speedup", "ratio"},
		{"proc.alloc_mb_per_srvh", "MB/srv-h"},
		{"proc.gc_cpu_frac", "frac"},
		{"trace.overhead_frac", "frac"},
		{"trace.unattributed_frac", "frac"},
	}
	for _, id := range suiteIDs {
		defs = append(defs, metricDef{"exp." + id + "_s", "s"})
	}
	return defs
}

// sizes scales the workloads. fullSizes is what the benchmark measures;
// the self-tests run tinySizes.
type sizes struct {
	fig4Servers  int
	fig4Horizon  time.Duration
	geoPerSite   int
	geoHorizon   time.Duration
	serveServers int
	serveHorizon time.Duration
	suite        []string
	minJobs      int
	full         bool // pinned fingerprints apply
}

var fullSizes = sizes{
	fig4Servers:  10_000,
	fig4Horizon:  6 * time.Hour,
	geoPerSite:   10_000,
	geoHorizon:   24 * time.Hour,
	serveServers: 2_000,
	serveHorizon: 12 * time.Hour,
	suite:        suiteIDs,
	minJobs:      3,
	full:         true,
}

// benchWorkload is one named benchmark workload.
type benchWorkload struct {
	name    string
	measure func(runConfig, *outcome) error
	trace   func(runConfig, *outcome) error
}

var workloads = []benchWorkload{
	{"facility-10k", measureFig4, traceFig4},
	{"geo-4x10k", measureGeo, traceGeo},
	{"serve-2k", measureServe, traceServe},
	{"suite", measureSuite, traceSuite},
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: facility-10k, geo-4x10k, serve-2k or suite")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 28, "wall-clock budget of the measured loop")
	traceFlag := fs.Int("trace", 0, "1: run the traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	rc := runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		workers: runtime.GOMAXPROCS(0),
		size:    fullSizes,
		rc:      newRuntimeCounters(),
	}
	fmt.Fprintln(stdout, environment())
	res, o, err := runWorkload(*name, rc, *traceFlag == 1)
	if err != nil {
		return err
	}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, f := range o.failures {
		fmt.Fprintln(stdout, "check failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// runWorkload runs one workload and assembles its result.
func runWorkload(name string, rc runConfig, traced bool) (result, *outcome, error) {
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return result{}, nil, fmt.Errorf("unknown workload %q", name)
	}
	o := newOutcome()
	fn, defs := w.measure, endToEnd
	if traced {
		fn, defs = w.trace, perLayer()
	}
	if err := fn(rc, o); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	res := result{
		Correct:   len(o.failures) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !traced {
			return result{}, nil, fmt.Errorf("%s: end-to-end metric %s was not measured", name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for k := range o.metrics {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return result{}, nil, fmt.Errorf("%s: metrics %v are not declared", name, extra)
	}
	return res, o, nil
}

// environment describes the host and build, printed ahead of the
// result so every run can be read against what it ran on.
func environment() string {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return fmt.Sprintf("env: nproc %d, GOMAXPROCS %d, %s %s/%s, GOGC %s, commit %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, gogc, commit)
}
