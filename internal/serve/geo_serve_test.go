package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/geo"
)

// geoTestConfig builds a small federation: site 0 carries the full
// facility substrate, odd sites close the retry loop, every site gets
// its own time-zone phase. Mirrors the geo package's own test scenario.
func geoTestConfig(seed int64, n int) geo.Config {
	cfg := geo.Config{
		Seed:       seed,
		Epoch:      30 * time.Minute,
		Tick:       time.Minute,
		Horizon:    4 * time.Hour,
		Mode:       geo.RouteWeighted,
		Invariants: true,
	}
	for i := 0; i < n; i++ {
		sc := geo.SiteConfig{
			Name:            "s" + string(rune('a'+i)),
			TZOffset:        time.Duration(i) * 24 * time.Hour / time.Duration(n),
			PopulationShare: float64(2 + i%3),
			FleetSize:       24,
			Retry:           i%2 == 1,
		}
		if i == 0 {
			sc.Facility = true
			sc.FleetSize = 40
		}
		cfg.Sites = append(cfg.Sites, sc)
	}
	return cfg
}

func geoTestServer(t *testing.T, seed int64, n int, opts Options) *GeoServer {
	t.Helper()
	fed, err := geo.New(geoTestConfig(seed, n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	s, err := NewGeoServer(fed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGeoServeEndToEnd drives a 3-site federation through virtual hours
// and checks the merged exposition: lint-clean, site-labeled, with the
// geo roll-up prelude, conditional families scoped to qualifying sites,
// and counters monotone across scrapes.
func TestGeoServeEndToEnd(t *testing.T) {
	s := geoTestServer(t, 3, 3, Options{Speedup: 3600})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.AdvanceTo(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	first, body := scrape(t, ts.URL)

	if got := first["dcsim_geo_sites"]; got != 3 {
		t.Errorf("dcsim_geo_sites = %v, want 3", got)
	}
	if got := first["dcsim_geo_epochs_total"]; got != 4 {
		t.Errorf("dcsim_geo_epochs_total = %v, want 4 (2h / 30m)", got)
	}
	if _, ok := first[`dcsim_geo_route_mode{mode="weighted"}`]; !ok {
		t.Errorf("exposition missing weighted route mode\n%s", body)
	}
	// Every per-site family carries the site label; weights sum to 1.
	wsum := 0.0
	for _, site := range []string{"sa", "sb", "sc"} {
		w, ok := first[`dcsim_geo_route_weight{site="`+site+`"}`]
		if !ok {
			t.Fatalf("missing route weight for %s\n%s", site, body)
		}
		wsum += w
		for _, fam := range []string{
			"dcsim_sim_time_seconds", "dcsim_fleet_power_watts",
			"dcsim_fleet_energy_joules_total", "dcsim_servers_active",
			"dcsim_carbon_intensity", "dcsim_carbon_grams_total",
			"dcsim_offered_users_total", "dcsim_fair_share_q",
		} {
			if _, ok := first[fam+`{site="`+site+`"}`]; !ok {
				t.Errorf("exposition missing %s for site %s", fam, site)
			}
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("route weights sum to %v, want 1", wsum)
	}
	// Facility families only for the facility-backed site; retry
	// families only for the retry site.
	if _, ok := first[`dcsim_pue_ratio{site="sa"}`]; !ok {
		t.Errorf("missing facility section for sa\n%s", body)
	}
	if _, ok := first[`dcsim_pue_ratio{site="sb"}`]; ok {
		t.Error("fleet-only site sb must not carry facility families")
	}
	if _, ok := first[`dcsim_goodput_users_total{site="sb"}`]; !ok {
		t.Error("missing retry section for retry site sb")
	}
	if _, ok := first[`dcsim_goodput_users_total{site="sa"}`]; ok {
		t.Error("non-retry site sa must not carry retry families")
	}
	// Global roll-ups agree with the per-site sums.
	psum := 0.0
	for _, site := range []string{"sa", "sb", "sc"} {
		psum += first[`dcsim_fleet_power_watts{site="`+site+`"}`]
	}
	if math.Abs(psum-first["dcsim_geo_power_watts"]) > 1e-6 {
		t.Errorf("geo power %v != site sum %v", first["dcsim_geo_power_watts"], psum)
	}

	if err := s.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	second, _ := scrape(t, ts.URL)
	for _, counter := range []string{
		"dcsim_geo_epochs_total",
		"dcsim_geo_energy_joules_total",
		"dcsim_geo_carbon_grams_total",
		`dcsim_fleet_energy_joules_total{site="sc"}`,
		`dcsim_offered_users_total{site="sb"}`,
		"dcsim_scrapes_total",
	} {
		if second[counter] <= first[counter] {
			t.Errorf("%s not monotone: %v -> %v", counter, first[counter], second[counter])
		}
	}

	// JSON snapshot agrees with the exposition.
	resp, err := http.Get(ts.URL + "/api/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap GeoSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SimTimeSeconds != second["dcsim_sim_time_seconds{site=\"sa\"}"] {
		t.Errorf("snapshot sim time %v != metrics", snap.SimTimeSeconds)
	}
	if len(snap.Sites) != 3 {
		t.Fatalf("snapshot sites = %d, want 3", len(snap.Sites))
	}
	if snap.Sites[0].Facility == nil || snap.Sites[1].Facility != nil {
		t.Error("snapshot facility sections misplaced")
	}
	if snap.Sites[1].Users == nil || snap.Sites[1].Users.Retry == nil {
		t.Error("snapshot retry section missing for sb")
	}
}

// TestGeoServedEqualsBatch is the serve-side half of the federation's
// determinism claim: pacing Federation.AdvanceTo in arbitrary slices
// through a GeoServer yields a Result bit-identical to one batch Run.
func TestGeoServedEqualsBatch(t *testing.T) {
	batch, err := geo.New(geoTestConfig(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	if err := batch.Run(); err != nil {
		t.Fatal(err)
	}

	s := geoTestServer(t, 7, 3, Options{Speedup: 3600})
	for now := 13 * time.Minute; ; now += 41 * time.Minute {
		if now > 4*time.Hour {
			now = 4 * time.Hour
		}
		if err := s.AdvanceTo(now); err != nil {
			t.Fatal(err)
		}
		if now == 4*time.Hour {
			break
		}
	}
	got := s.fed.Result()
	want := batch.Result()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("served result diverged from batch:\n got %+v\nwant %+v", got, want)
	}
}
