package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/onoff"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// testFacility assembles a small managed facility — the same wiring
// cmd/dcsim uses, shrunk for test speed — and returns it unstarted.
func testFacility(t *testing.T, seed int64, fleetSize int) (*sim.Engine, *core.Manager, *core.DataCenter) {
	t.Helper()
	srvCfg := server.DefaultConfig()
	e := sim.NewEngine(seed)
	perRack := 5
	racks := (fleetSize + perRack - 1) / perRack
	zones := (racks + 1) / 2
	roomCfg := cooling.RoomConfig{PhysicsTick: cooling.DefaultPhysicsTick}
	for z := 0; z < zones; z++ {
		roomCfg.Zones = append(roomCfg.Zones, cooling.DefaultZone(fmt.Sprintf("z%d", z)))
		roomCfg.Sensitivity = append(roomCfg.Sensitivity, []float64{0.9})
	}
	roomCfg.CRACs = []cooling.CRACConfig{cooling.DefaultCRAC("c0")}
	zoneOfRack := make([]int, racks)
	for r := range zoneOfRack {
		zoneOfRack[r] = r / 2
	}
	dc, err := core.NewDataCenter(e, core.DataCenterConfig{
		Name:           "serve-test",
		ServerConfig:   srvCfg,
		ServersPerRack: perRack,
		Topology: power.TopologyConfig{
			UPSCount: 1, PDUsPerUPS: 1, RacksPerPDU: racks,
			RackRatedW: float64(perRack) * srvCfg.PeakPower * 1.1, Oversubscription: 1,
		},
		Room:        roomCfg,
		ZoneOfRack:  zoneOfRack,
		Plant:       cooling.DefaultPlantConfig(),
		SampleEvery: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Attach(); err != nil {
		t.Fatal(err)
	}
	n := dc.Fleet().Size()
	sla := 100 * time.Millisecond
	mgr, err := core.NewManagerForFleet(e, core.ManagerConfig{
		ServerConfig:   srvCfg,
		FleetSize:      n,
		Queue:          workload.DefaultQueueModel(),
		SLA:            sla,
		DecisionPeriod: time.Minute,
		Mode:           core.ModeCoordinated,
		Trigger:        onoff.DelayTrigger{High: sla * 6 / 10, Low: sla / 4, StepUp: 1, StepDown: 1, Min: 1, Max: n},
		InitialOn:      n / 2,
	}, dc.Fleet(), func(now time.Duration) float64 {
		return 0.3 * float64(n) * srvCfg.Capacity
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, mgr, dc
}

func testServer(t *testing.T, seed int64, fleetSize int, opts Options) (*Server, *core.DataCenter) {
	t.Helper()
	e, mgr, dc := testFacility(t, seed, fleetSize)
	mgr.Start()
	s, err := NewServer(Source{Engine: e, Fleet: mgr.Fleet(), Manager: mgr, DC: dc}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, dc
}

// fetchMetrics fetches one /metrics exposition and returns it parsed
// into a sample map (series -> value) after running it through the
// linter.
func fetchMetrics(url string) (map[string]float64, string, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentType {
		return nil, "", fmt.Errorf("Content-Type = %q, want %q", ct, ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if err := Lint(body); err != nil {
		return nil, "", fmt.Errorf("exposition fails lint: %v\n%s", err, body)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, "", fmt.Errorf("bad sample line %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples, string(body), nil
}

// scrape is fetchMetrics for the test's own goroutine.
func scrape(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	samples, body, err := fetchMetrics(url)
	if err != nil {
		t.Fatal(err)
	}
	return samples, body
}

// TestServeEndToEnd drives a facility through virtual hours and checks
// the exposition: parseable, lint-clean, carrying the full metric set,
// with counters monotone across scrapes.
func TestServeEndToEnd(t *testing.T) {
	s, dc := testServer(t, 1, 10, Options{Speedup: 3600})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.AdvanceTo(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	first, body := scrape(t, ts.URL)
	for _, name := range []string{
		"dcsim_sim_time_seconds",
		"dcsim_sim_events_total",
		"dcsim_fleet_power_watts",
		"dcsim_fleet_energy_joules_total",
		"dcsim_servers_active",
		"dcsim_thermal_trips_total",
		"dcsim_rebase_drift_watts",
		"dcsim_rebase_drift_max_watts",
		"dcsim_pue_ratio",
		"dcsim_feed_power_watts",
		"dcsim_carbon_intensity",
		"dcsim_carbon_grams_total",
		"dcsim_frame_age_seconds",
		`dcsim_policy_mode{mode="coordinated"}`,
		`dcsim_switches_total{direction="on"}`,
	} {
		if _, ok := first[name]; !ok {
			t.Errorf("exposition missing %s\n%s", name, body)
		}
	}
	if got := first["dcsim_sim_time_seconds"]; got != 7200 {
		t.Errorf("sim time = %v, want 7200", got)
	}
	if first["dcsim_fleet_power_watts"] <= 0 {
		t.Error("fleet power should be positive with servers active")
	}
	if first["dcsim_pue_ratio"] <= 1 {
		t.Errorf("PUE = %v, want > 1", first["dcsim_pue_ratio"])
	}
	// Zone series carry the room's zone names as labels.
	for z := 0; z < dc.Room().Zones(); z++ {
		key := fmt.Sprintf("dcsim_zone_inlet_celsius{zone=%q}", dc.Room().ZoneName(z))
		if v, ok := first[key]; !ok || v <= 0 {
			t.Errorf("zone inlet %s missing or non-physical (%v)", key, v)
		}
	}
	// Frame-backed inlets: the frame row must be fresh (≤ one sample
	// period old).
	if age := first["dcsim_frame_age_seconds"]; age < 0 || age > dc.SampleEvery().Seconds() {
		t.Errorf("frame age = %v s, want within [0, %v]", age, dc.SampleEvery().Seconds())
	}

	if err := s.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	second, _ := scrape(t, ts.URL)
	for _, counter := range []string{
		"dcsim_sim_events_total",
		"dcsim_fleet_energy_joules_total",
		"dcsim_carbon_grams_total",
		"dcsim_decisions_total",
		"dcsim_scrapes_total",
	} {
		if second[counter] <= first[counter] {
			t.Errorf("%s not monotone: %v -> %v", counter, first[counter], second[counter])
		}
	}
	if second["dcsim_thermal_trips_total"] < first["dcsim_thermal_trips_total"] {
		t.Error("trips counter decreased")
	}

	// JSON snapshot agrees with the exposition.
	resp, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SimTimeSeconds != second["dcsim_sim_time_seconds"] {
		t.Errorf("snapshot sim time %v != metrics %v", snap.SimTimeSeconds, second["dcsim_sim_time_seconds"])
	}
	if snap.EnergyJoules != second["dcsim_fleet_energy_joules_total"] {
		t.Errorf("snapshot energy %v != metrics %v", snap.EnergyJoules, second["dcsim_fleet_energy_joules_total"])
	}
	if snap.Facility == nil || len(snap.Facility.Zones) != dc.Room().Zones() {
		t.Fatalf("snapshot facility zones = %+v", snap.Facility)
	}
}

// served is the surface both server kinds share through the pacer.
type served interface {
	AdvanceTo(time.Duration) error
	Run(context.Context) error
	Handler() http.Handler
	Shutdown()
	Options() Options
}

// servedSnapshot decodes what both kinds' snapshots carry: the shared
// header, and the facility sections wherever they sit (top level for a
// single site, per site for a federation).
type servedSnapshot struct {
	Seq            uint64            `json:"seq"`
	SimTimeSeconds float64           `json:"sim_time_seconds"`
	Facility       *FacilitySnapshot `json:"facility"`
	Sites          []GeoSiteSnapshot `json:"sites"`
}

func (s servedSnapshot) facilities() []*FacilitySnapshot {
	fs := []*FacilitySnapshot{s.Facility}
	for i := range s.Sites {
		fs = append(fs, s.Sites[i].Facility)
	}
	return fs
}

// servedKind is one server kind under the tests that must hold for both.
type servedKind struct {
	name string
	// energy is the cumulative-energy counter the exposition carries.
	energy string
	// sites is the number of per-site snapshot sections (0: none).
	sites int
	// horizon is the Options.Horizon that ends a run at 2 virtual hours:
	// explicit for a single site, zero (the federation's own) for geo.
	horizon time.Duration
	build   func(t *testing.T, opts Options) served
}

func servedKinds() []servedKind {
	return []servedKind{
		{
			name: "single", energy: "dcsim_fleet_energy_joules_total", horizon: 2 * time.Hour,
			build: func(t *testing.T, opts Options) served {
				s, _ := testServer(t, 3, 10, opts)
				return s
			},
		},
		{
			name: "geo", energy: "dcsim_geo_energy_joules_total", sites: 2,
			build: func(t *testing.T, opts Options) served {
				cfg := geoTestConfig(3, 2)
				cfg.Horizon = 2 * time.Hour
				cfg.Parallel = true
				fed, err := geo.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(fed.Close)
				s, err := NewGeoServer(fed, opts)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
		},
	}
}

// fetchSnapshot fetches and decodes /api/v1/snapshot, rejecting a body
// that is not valid JSON.
func fetchSnapshot(url string) (servedSnapshot, error) {
	var snap servedSnapshot
	resp, err := http.Get(url + "/api/v1/snapshot")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	if !json.Valid(body) {
		return snap, fmt.Errorf("snapshot is not valid JSON:\n%s", body)
	}
	return snap, json.Unmarshal(body, &snap)
}

// getSnapshot is fetchSnapshot for the test's own goroutine.
func getSnapshot(t *testing.T, url string) servedSnapshot {
	t.Helper()
	snap, err := fetchSnapshot(url)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

type sseEvent struct {
	id   uint64
	name string
	snap servedSnapshot
}

// streamEvents opens /api/v1/stream and delivers its events in order;
// the channel closes when the stream ends.
func streamEvents(ctx context.Context, t *testing.T, url string) <-chan sseEvent {
	t.Helper()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/api/v1/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("Content-Type = %q", ct)
	}
	// Buffered past the events any test waits for, so the reader never
	// holds up the stream while the test is busy advancing time.
	events := make(chan sseEvent, 32)
	go func() {
		defer close(events)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				id, err := strconv.ParseUint(line[4:], 10, 64)
				if err != nil {
					t.Errorf("bad id line %q", line)
					return
				}
				ev.id = id
			case strings.HasPrefix(line, "event: "):
				ev.name = line[7:]
			case strings.HasPrefix(line, "data: "):
				if err := json.Unmarshal([]byte(line[6:]), &ev.snap); err != nil {
					t.Errorf("bad data line: %v", err)
					return
				}
			case line == "":
				events <- ev
				ev = sseEvent{}
			default:
				t.Errorf("unexpected SSE line %q", line)
				return
			}
		}
	}()
	return events
}

// TestSSEStream subscribes to /api/v1/stream, advances virtual time
// across several emit boundaries, and checks the events arrive ordered
// and well-formed.
func TestSSEStream(t *testing.T) {
	for _, k := range servedKinds() {
		t.Run(k.name, func(t *testing.T) {
			s := k.build(t, Options{Speedup: 3600, EmitEvery: 15 * time.Second})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			events := streamEvents(ctx, t, ts.URL)

			// First event is the immediate current-state snapshot.
			var first sseEvent
			select {
			case first = <-events:
			case <-ctx.Done():
				t.Fatal("no initial SSE event")
			}

			// Cross 8 emit boundaries; one event per AdvanceTo step.
			for i := 1; i <= 8; i++ {
				if err := s.AdvanceTo(time.Duration(i) * 15 * time.Second); err != nil {
					t.Fatal(err)
				}
			}

			lastID, lastSim := first.id, first.snap.SimTimeSeconds
			for n := 0; n < 8; n++ {
				select {
				case ev, ok := <-events:
					if !ok {
						t.Fatal("stream closed early")
					}
					if ev.name != "snapshot" {
						t.Fatalf("cadence event named %q", ev.name)
					}
					if ev.id <= lastID {
						t.Fatalf("event ids not increasing: %d after %d", ev.id, lastID)
					}
					if ev.snap.SimTimeSeconds < lastSim {
						t.Fatalf("sim time went backwards: %v after %v", ev.snap.SimTimeSeconds, lastSim)
					}
					if ev.snap.Seq != ev.id {
						t.Fatalf("event id %d != snapshot seq %d", ev.id, ev.snap.Seq)
					}
					if len(ev.snap.Sites) != k.sites {
						t.Fatalf("event has %d site sections, want %d", len(ev.snap.Sites), k.sites)
					}
					lastID, lastSim = ev.id, ev.snap.SimTimeSeconds
				case <-ctx.Done():
					t.Fatalf("timed out after %d events", n)
				}
			}
		})
	}
}

// TestHandlers checks the endpoints both kinds share: health, a linted
// exposition, a valid JSON snapshot, a stream that opens with the
// current snapshot, and a shutdown that sends one final frame, ends the
// stream, and leaves scrapes answering.
func TestHandlers(t *testing.T) {
	for _, k := range servedKinds() {
		t.Run(k.name, func(t *testing.T) {
			s := k.build(t, Options{Speedup: 3600, EmitEvery: 15 * time.Minute})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			// Cross two emit boundaries so the sequence is past zero.
			for _, at := range []time.Duration{20 * time.Minute, 40 * time.Minute} {
				if err := s.AdvanceTo(at); err != nil {
					t.Fatal(err)
				}
			}

			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
				t.Errorf("/healthz = %s %q", resp.Status, body)
			}

			samples, _ := scrape(t, ts.URL)
			if samples[k.energy] <= 0 {
				t.Errorf("%s = %v, want positive", k.energy, samples[k.energy])
			}

			snap := getSnapshot(t, ts.URL)
			if snap.Seq != 2 || snap.SimTimeSeconds != (40*time.Minute).Seconds() {
				t.Errorf("snapshot seq %d at %vs, want 2 at 2400s", snap.Seq, snap.SimTimeSeconds)
			}
			if len(snap.Sites) != k.sites {
				t.Errorf("snapshot has %d site sections, want %d", len(snap.Sites), k.sites)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			events := streamEvents(ctx, t, ts.URL)
			select {
			case ev := <-events:
				if ev.name != "snapshot" || ev.id != snap.Seq || ev.snap.Seq != snap.Seq {
					t.Errorf("first event %q id %d seq %d, want snapshot with seq %d", ev.name, ev.id, ev.snap.Seq, snap.Seq)
				}
				if len(ev.snap.Sites) != k.sites {
					t.Errorf("first event has %d site sections, want %d", len(ev.snap.Sites), k.sites)
				}
			case <-ctx.Done():
				t.Fatal("no initial SSE event")
			}

			s.Shutdown()
			s.Shutdown() // idempotent
			var rest []sseEvent
			for ev := range events {
				rest = append(rest, ev)
			}
			if ctx.Err() != nil {
				t.Fatal("stream did not end after Shutdown")
			}
			if len(rest) != 1 || rest[0].name != "shutdown" || rest[0].id != snap.Seq {
				t.Errorf("after Shutdown got %+v, want one shutdown frame with id %d", rest, snap.Seq)
			}

			// Streams opened after shutdown end right after the initial
			// snapshot, and scrapes still answer.
			var late []sseEvent
			for ev := range streamEvents(ctx, t, ts.URL) {
				late = append(late, ev)
			}
			if len(late) != 1 || late[0].name != "snapshot" {
				t.Errorf("post-shutdown stream carried %+v, want the initial snapshot only", late)
			}
			scrape(t, ts.URL)
		})
	}
}

// TestScrapeWhileSimulating is the -race soak: the pacer advances the
// simulation while scrapers hammer every endpoint concurrently, and Run
// returns by itself once the horizon is reached.
func TestScrapeWhileSimulating(t *testing.T) {
	for _, k := range servedKinds() {
		t.Run(k.name, func(t *testing.T) {
			s := k.build(t, Options{
				Speedup:   7200,
				Horizon:   k.horizon,
				Slice:     2 * time.Millisecond,
				EmitEvery: 15 * time.Second,
			})
			if got := s.Options().Horizon; got != 2*time.Hour {
				t.Fatalf("effective horizon %v, want 2h", got)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			paceDone := make(chan error, 1)
			go func() { paceDone <- s.Run(ctx) }()

			var wg sync.WaitGroup
			stop := make(chan struct{})
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastEnergy float64
					for {
						select {
						case <-stop:
							return
						default:
						}
						samples, _, err := fetchMetrics(ts.URL)
						if err != nil {
							t.Error(err)
							return
						}
						if e := samples[k.energy]; e < lastEnergy {
							t.Errorf("energy counter regressed: %v -> %v", lastEnergy, e)
							return
						} else {
							lastEnergy = e
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					snap, err := fetchSnapshot(ts.URL)
					if err != nil {
						t.Error(err)
						return
					}
					for _, f := range snap.facilities() {
						if f == nil {
							continue
						}
						for _, z := range f.Zones {
							if z.InletC < -50 || z.InletC > 200 {
								t.Errorf("non-physical inlet %v (torn read?)", z.InletC)
								return
							}
						}
					}
				}
			}()

			// Run must end at the horizon on its own, not at ctx's deadline.
			err := <-paceDone
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatalf("pacer: %v", err)
			}
			if got := getSnapshot(t, ts.URL).SimTimeSeconds; got != (2 * time.Hour).Seconds() {
				t.Fatalf("horizon not reached: %v", got)
			}
		})
	}
}

// TestSlicedEqualsBatch pins the determinism contract the live mode
// advertises: pacing the engine through many uneven AdvanceTo slices
// yields bit-identical state and telemetry to one monolithic Run over
// the same horizon at the same seed.
func TestSlicedEqualsBatch(t *testing.T) {
	const horizon = 3 * time.Hour

	// Batch: one Run call.
	eA, mgrA, dcA := testFacility(t, 7, 10)
	mgrA.Start()
	if err := eA.Run(horizon); err != nil {
		t.Fatal(err)
	}

	// Live: the same facility advanced through ragged slices.
	sB, dcB := testServer(t, 7, 10, Options{Speedup: 1})
	var at time.Duration
	for i := 0; at < horizon; i++ {
		at += time.Duration(1+i%7) * 13 * time.Second
		if at > horizon {
			at = horizon
		}
		if err := sB.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := sB.src.Engine.Processed(), eA.Processed(); got != want {
		t.Fatalf("events processed: sliced %d, batch %d", got, want)
	}
	if got, want := dcB.Fleet().EnergyJ(), dcA.Fleet().EnergyJ(); got != want {
		t.Fatalf("energy: sliced %v, batch %v", got, want)
	}
	if got, want := dcB.Fleet().PowerW(), dcA.Fleet().PowerW(); got != want {
		t.Fatalf("power: sliced %v, batch %v", got, want)
	}

	// Telemetry frames byte-identical: compare every framed key at raw
	// resolution over the retention window and hourly over the run.
	keys := []string{"srv0000/power", "srv0003/util", "zone00/inlet"}
	for _, key := range keys {
		for _, res := range []telemetry.Resolution{telemetry.ResRaw, telemetry.ResHour} {
			a, errA := dcA.Store().Query(key, 0, horizon+time.Second, res)
			b, errB := dcB.Store().Query(key, 0, horizon+time.Second, res)
			if errA != nil || errB != nil {
				t.Fatalf("query %s: %v / %v", key, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("telemetry diverged for %s at res %v", key, res)
			}
		}
	}
}

// TestOptionsValidation covers the option defaulting and rejection
// paths.
func TestOptionsValidation(t *testing.T) {
	e, mgr, dc := testFacility(t, 11, 5)
	src := Source{Engine: e, Fleet: mgr.Fleet(), Manager: mgr, DC: dc}
	for _, opts := range []Options{
		{Speedup: 0},
		{Speedup: -1},
		{Speedup: math.NaN()},
		{Speedup: math.Inf(1)},
		{Speedup: 2e11}, // Slice*Speedup past 2^63 ns wraps the step
		{Speedup: 1, OutsideC: math.NaN(), OutsideRH: 0.5},
		{Speedup: 1, OutsideC: math.Inf(-1), OutsideRH: 0.5},
		{Speedup: 1, OutsideC: 20, OutsideRH: math.NaN()},
		{Speedup: 1, Horizon: -time.Hour},
		{Speedup: 1, Slice: -time.Second},
		{Speedup: 1, EmitEvery: -time.Second},
		{Speedup: 1, OutsideC: 20, OutsideRH: 1.5},
	} {
		if _, err := NewServer(src, opts); err == nil {
			t.Errorf("NewServer(%+v) should reject", opts)
		}
		if err := opts.Validate(); err == nil {
			t.Errorf("Validate(%+v) should reject", opts)
		}
	}
	if _, err := NewServer(Source{}, Options{Speedup: 1}); err == nil {
		t.Error("nil engine should reject")
	}
	if _, err := NewServer(src, Options{Speedup: 1e11}); err != nil {
		t.Errorf("largest representable step rejected: %v", err)
	}
	s, err := NewServer(src, Options{Speedup: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Options()
	if o.Slice != 50*time.Millisecond || o.EmitEvery != 15*time.Second {
		t.Errorf("defaults not applied: %+v", o)
	}
	if o.Carbon.BaseGPerKWh <= 0 {
		t.Error("carbon model not defaulted")
	}
	if o.OutsideC != 18 || o.OutsideRH != 0.5 {
		t.Errorf("outside conditions not defaulted: %v %v", o.OutsideC, o.OutsideRH)
	}
}
