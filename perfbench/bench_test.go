package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// tinySizes runs every workload at a size that takes well under a second.
var tinySizes = sizes{
	fig4Servers:  200,
	fig4Horizon:  time.Hour,
	geoPerSite:   200,
	geoHorizon:   3 * time.Hour,
	serveServers: 40,
	serveHorizon: time.Hour,
	suite:        []string{"idle60", "capping", "fig1"},
	minJobs:      1,
}

func tinyConfig() runConfig {
	return runConfig{seed: 3, budget: time.Millisecond, workers: 2, size: tinySizes, rc: newRuntimeCounters()}
}

// TestEveryMetricEmitted runs a tiny pass of each workload, untraced and
// traced, and checks that the result names every declared metric with
// its unit and that every check passed.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, o, err := runWorkload(w.name, tinyConfig(), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, o.failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestTracedFingerprintsEqualUntraced checks directly that markers and
// hooks leave the simulation untouched: the traced job's fingerprint,
// net of the markers, equals the untraced job's, at any width.
func TestTracedFingerprintsEqualUntraced(t *testing.T) {
	rc := tinyConfig()
	builds := map[string]func(workers int, traced bool) (*facility, error){
		"facility": func(workers int, traced bool) (*facility, error) {
			return buildFig4(rc.seed, rc.size.fig4Servers, workers, traced, rc.rc)
		},
		"served": func(workers int, traced bool) (*facility, error) {
			return buildServed(rc.seed, rc.size.serveServers, workers, traced, rc.rc)
		},
	}
	const horizon = 2 * time.Hour
	for name, build := range builds {
		var prints []fingerprint
		for _, c := range []struct {
			workers int
			traced  bool
		}{{2, false}, {2, true}, {1, true}} {
			f, err := build(c.workers, c.traced)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.advance(horizon, true); err != nil {
				t.Fatal(err)
			}
			if c.traced && f.tr.fired == 0 {
				t.Errorf("%s: no marker fired", name)
			}
			prints = append(prints, f.fingerprint(horizon))
			f.close()
		}
		if prints[0].Events == 0 || !(prints[0].EnergyJ > 0) {
			t.Fatalf("%s: empty run %+v", name, prints[0])
		}
		for _, p := range prints[1:] {
			if p != prints[0] {
				t.Errorf("%s: traced fingerprint %+v, untraced %+v", name, p, prints[0])
			}
		}
	}

	o := newOutcome()
	par, err := geoJob(rc, true, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := geoJob(rc, false, newTracer(rc.rc), o)
	if err != nil {
		t.Fatal(err)
	}
	if traced.print != par.print {
		t.Errorf("geo: traced serial fingerprint %+v, untraced parallel %+v", traced.print, par.print)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the workloads and metrics, with their units,
// that the program runs and emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !slices.Equal(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		spec []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer(), spec.PerLayer}} {
		var got []metricDef
		for _, m := range c.spec {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !slices.Equal(got, c.defs) {
			t.Errorf("%s: BENCHMARK.json declares %v, the program emits %v", c.what, got, c.defs)
		}
	}
}

// TestTail checks the tail percentile choice: the highest of p90, p99,
// p99.9 and p99.99 with at least ten samples beyond it.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 100}, {99, 100}, {100, 90}, {999, 90}, {1000, 99}, {10_000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := tailOf(xs, 90); got.Value != 90 || got.N != 100 {
		t.Errorf("p90 of 1..100 = %+v, want 90", got)
	}
	if got := tailOf(xs[95:], 100); got.Value != 5 {
		t.Errorf("p100 of 1..5 = %+v, want the maximum", got)
	}
}

// TestBlockTail checks that the tail is the median of per-block
// percentiles, so a burst confined to one block does not set it.
func TestBlockTail(t *testing.T) {
	if got := tailBlock(99); got != 1000 {
		t.Errorf("tailBlock(99) = %d, want 1000", got)
	}
	if got := tailBlock(100); got != 0 {
		t.Errorf("tailBlock(100) = %d, want 0", got)
	}
	// Five blocks of 100 samples, p90 of each is 1; the third block
	// also holds a burst of 60 slow samples, enough to set p90 over
	// the whole series.
	xs := make([]float64, 550)
	for i := range xs {
		xs[i] = 1
		if i >= 200 && i < 260 {
			xs[i] = 9
		}
	}
	got := blockTail(xs, 90)
	if got.Value != 1 || got.Blocks != 5 || got.N != 550 {
		t.Errorf("blockTail = %+v, want 1 over 5 blocks of 550 samples", got)
	}
	if whole := tailOf(xs, 90); whole.Value != 9 {
		t.Errorf("p90 over the whole series = %v, want the burst's 9", whole.Value)
	}
	if got := blockTail(xs[:150], 90); got.Blocks != 0 || got.N != 150 {
		t.Errorf("blockTail of 150 samples = %+v, want one block", got)
	}
}
