package serve

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/geo"
)

// GeoSiteSnapshot is one federated site's section of a GeoSnapshot: the
// full single-facility view plus the site's identity and routing state.
type GeoSiteSnapshot struct {
	// Site is the site name ("us-east", ...), also the exposition's
	// site label value.
	Site string `json:"site"`
	// TZOffsetSeconds is the site's diurnal phase shift.
	TZOffsetSeconds float64 `json:"tz_offset_seconds"`
	// RouteWeight is the share of global demand the router currently
	// directs at this site.
	RouteWeight float64 `json:"route_weight"`
	// Snapshot is the standard per-facility view (fleet, facility,
	// users, carbon), evaluated in site-local conditions.
	Snapshot
}

// GeoSnapshot is a consistent view of the whole federation: global
// roll-ups plus one full per-site section per site.
type GeoSnapshot struct {
	// Seq is the SSE event sequence number.
	Seq uint64 `json:"seq"`
	// SimTimeSeconds is the shared virtual clock (all sites advance in
	// lockstep epochs, so one clock describes every site).
	SimTimeSeconds float64 `json:"sim_time_seconds"`
	// Speedup echoes the configured virtual-per-wall ratio.
	Speedup float64 `json:"speedup"`
	// Mode names the global routing mode (home/static/weighted).
	Mode string `json:"mode"`
	// Epochs counts routing barriers crossed so far.
	Epochs int64 `json:"epochs"`
	// PowerW / EnergyJoules / GramsCO2e are federation-wide sums.
	PowerW       float64 `json:"power_w"`
	EnergyJoules float64 `json:"energy_joules"`
	GramsCO2e    float64 `json:"grams_co2e"`
	// Sites holds one section per site, in fixed site order.
	Sites []GeoSiteSnapshot `json:"sites"`
}

// GeoServer paces a geo.Federation on the same pacer as Server and
// serves its merged state over the same endpoints: one OpenMetrics
// exposition with a site label on every per-site family, a JSON snapshot
// with per-site sections, and an SSE stream of those snapshots. It
// differs from Server only in what it steps and reports: a zero Horizon
// defaults to the federation's own, and carbon is evaluated per site.
type GeoServer struct {
	pacer[GeoSnapshot]
	fed *geo.Federation
}

// NewGeoServer validates the options and builds a server around the
// federation. Options.Carbon is ignored: each site carries its own
// grid model (geo.SiteConfig.Carbon) and the exposition reports
// site-local intensities. A zero Horizon defaults to the federation's
// own horizon so Run terminates instead of idling past it.
func NewGeoServer(fed *geo.Federation, opts Options) (*GeoServer, error) {
	if fed == nil {
		return nil, fmt.Errorf("serve: nil federation")
	}
	if opts.Horizon == 0 {
		opts.Horizon = fed.Config().Horizon
	}
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	s := &GeoServer{fed: fed}
	s.init(s, opts)
	return s, nil
}

func (s *GeoServer) now() time.Duration { return s.fed.Now() }

func (s *GeoServer) advance(target time.Duration) error { return s.fed.AdvanceTo(target) }

func (s *GeoServer) stamp(snap GeoSnapshot, seq uint64) GeoSnapshot {
	snap.Seq = seq
	return snap
}

func (s *GeoServer) render(buf *bytes.Buffer, snap GeoSnapshot, scrapes uint64) {
	writeGeoMetrics(buf, &snap, scrapes)
}

// snapshotLocked builds the federated snapshot; callers hold s.mu.
func (s *GeoServer) snapshotLocked() GeoSnapshot {
	now := s.fed.Now()
	sites := s.fed.Sites()
	snap := GeoSnapshot{
		SimTimeSeconds: now.Seconds(),
		Speedup:        s.opts.Speedup,
		Mode:           s.fed.Config().Mode.String(),
		Epochs:         s.fed.Epochs(),
		Sites:          make([]GeoSiteSnapshot, 0, len(sites)),
	}
	for _, site := range sites {
		src := Source{
			Engine:    site.Engine(),
			Fleet:     site.Fleet(),
			Manager:   site.Manager(),
			DC:        site.DC(),
			Admission: site.Admission(),
			Retry:     site.Retry(),
		}
		sec := GeoSiteSnapshot{
			Site:            site.Name(),
			TZOffsetSeconds: site.TZOffset().Seconds(),
			RouteWeight:     site.Weight(),
			Snapshot:        s.buildSnapshot(src),
		}
		// Carbon is evaluated in site-local time against the site's own
		// grid model; grams come from the barrier-integrated meter.
		local := now + site.TZOffset()
		model := site.CarbonModel()
		sec.Snapshot.Carbon = CarbonSnapshot{
			IntensityGPerKWh: model.IntensityAt(local),
			RateGPerHour:     model.RateGPerHour(local, sec.Snapshot.PowerW),
			GramsTotal:       site.Grams(),
		}
		snap.PowerW += sec.Snapshot.PowerW
		snap.EnergyJoules += sec.Snapshot.EnergyJoules
		snap.GramsCO2e += sec.Snapshot.Carbon.GramsTotal
		snap.Sites = append(snap.Sites, sec)
	}
	return snap
}
