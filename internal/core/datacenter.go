package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cooling"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DataCenterConfig assembles a complete facility: a server fleet placed
// into the power tree's racks, racks mapped onto cooling zones, a
// heat-rejection plant, and optional telemetry collection.
type DataCenterConfig struct {
	// Name identifies the facility.
	Name string
	// ServerConfig is the homogeneous server model.
	ServerConfig server.Config
	// ServersPerRack places this many servers in each rack of the
	// power topology.
	ServersPerRack int
	// Topology shapes the power tree.
	Topology power.TopologyConfig
	// Room shapes the thermal model. len(Room.Zones) zones.
	Room cooling.RoomConfig
	// ZoneOfRack maps each rack index to a cooling zone.
	ZoneOfRack []int
	// Plant is the heat-rejection plant.
	Plant cooling.PlantConfig
	// SampleEvery enables telemetry collection at this period (0
	// disables; the paper's scenario samples every 15 s).
	SampleEvery time.Duration
	// Pool, when non-nil, executes the facility's sharded per-tick loops
	// (physics trip scans, dispatch, frame sampling) on its workers. Nil
	// runs the same sharded structure inline; results are identical.
	Pool *par.Pool
}

// DataCenter is the assembled cyber-physical facility of Figure 4's
// bottom half: computing fleet, power distribution, and cooling coupled
// through heat and protected by thermal trips, with telemetry feeding the
// macro layer.
type DataCenter struct {
	cfg    DataCenterConfig
	engine *sim.Engine
	fleet  *Fleet
	topo   *power.Topology
	room   *cooling.Room
	store  *telemetry.Store
	// The per-entity series form one synchronously-sampled frame: server
	// i's power and utilization occupy columns 2i and 2i+1, the zone
	// inlets follow. A sample round fills frameBuf and hands the store
	// one columnar append — no per-key locking, hashing, or pyramid
	// walks (the §5.3 ingest fast path).
	frames   *telemetry.FrameWriter
	frameBuf []float64
	rackOf   []int // server index -> rack index
	zoneOf   []int // server index -> zone index
	// zoneServers lists server indexes per zone (rebuilt on reorder), so
	// zone-scoped control loops avoid O(N) scans.
	zoneServers [][]int
	// zoneMinTripC is the lowest protective-trip threshold in each zone:
	// the physics tick only walks a zone's servers when its inlet exceeds
	// this, keeping the steady-state tick O(zones) instead of O(servers)
	// while preserving exact trip semantics.
	zoneMinTripC []float64
	// Sharded physics-scan machinery (armed only for zones larger than
	// parCutoff, which implies a sharded fleet): per-zone shard lists over
	// the zone's server index, a slot → shard routing map covering every
	// zone, and padded per-shard trip counters so concurrent shards never
	// bounce a cache line while counting.
	zoneShards [][]par.Range
	physRoute  []int32
	tripCnt    []padCount
	tripped    int
	cancels    []sim.Cancel
	attached   bool
}

// padCount is an int64 counter padded to a full cache line, for slabs of
// per-shard counters written concurrently.
type padCount struct {
	v int64
	_ [56]byte
}

// NewDataCenter builds and wires the facility.
func NewDataCenter(e *sim.Engine, cfg DataCenterConfig) (*DataCenter, error) {
	if cfg.ServersPerRack <= 0 {
		return nil, fmt.Errorf("core: servers per rack %d must be positive", cfg.ServersPerRack)
	}
	topo, err := power.NewTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	room, err := cooling.NewRoom(cfg.Room)
	if err != nil {
		return nil, err
	}
	if err := cfg.Plant.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.ZoneOfRack) != len(topo.Racks) {
		return nil, fmt.Errorf("core: ZoneOfRack has %d entries for %d racks", len(cfg.ZoneOfRack), len(topo.Racks))
	}
	for ri, z := range cfg.ZoneOfRack {
		if z < 0 || z >= room.Zones() {
			return nil, fmt.Errorf("core: rack %d mapped to invalid zone %d", ri, z)
		}
	}
	if cfg.SampleEvery < 0 {
		return nil, fmt.Errorf("core: negative sample period")
	}

	nServers := len(topo.Racks) * cfg.ServersPerRack
	fleet, err := NewFleet(e, cfg.ServerConfig, nServers)
	if err != nil {
		return nil, err
	}
	fleet.SetParallel(cfg.Pool)
	dc := &DataCenter{
		cfg:    cfg,
		engine: e,
		fleet:  fleet,
		topo:   topo,
		room:   room,
		rackOf: make([]int, nServers),
		zoneOf: make([]int, nServers),
	}
	for i := range fleet.Servers() {
		rack := i / cfg.ServersPerRack
		dc.rackOf[i] = rack
		dc.zoneOf[i] = cfg.ZoneOfRack[rack]
	}
	// One load closure per rack reading the fleet's maintained per-rack
	// sum — the power tree no longer fans out to N per-server closures.
	if err := fleet.SetPowerGroups(dc.rackOf, dc.zoneOf, len(topo.Racks), room.Zones()); err != nil {
		return nil, err
	}
	for r := range topo.Racks {
		r := r // capture for the load closure
		topo.Racks[r].AddLoad(func() float64 { return fleet.RackPowerW(r) })
	}
	dc.rebuildZoneIndex()
	e.Register(topo)
	if cfg.SampleEvery > 0 {
		// The store's raw interval is the facility's real cadence: it
		// sizes the raw ring at one retention window of rounds.
		tcfg := telemetry.DefaultConfig()
		tcfg.RawInterval = cfg.SampleEvery
		dc.store, err = telemetry.NewStore(tcfg)
		if err != nil {
			return nil, err
		}
		keys := make([]string, 0, 2*nServers+room.Zones())
		for i := 0; i < nServers; i++ {
			keys = append(keys, fmt.Sprintf("srv%04d/power", i), fmt.Sprintf("srv%04d/util", i))
		}
		for z := 0; z < room.Zones(); z++ {
			keys = append(keys, fmt.Sprintf("zone%02d/inlet", z))
		}
		dc.frames, err = dc.store.Frames(keys)
		if err != nil {
			return nil, err
		}
		dc.frameBuf = par.AlignedFloats(len(keys))
	}
	return dc, nil
}

// Fleet exposes the server fleet.
func (dc *DataCenter) Fleet() *Fleet { return dc.fleet }

// Room exposes the thermal model.
func (dc *DataCenter) Room() *cooling.Room { return dc.room }

// Topology exposes the power tree.
func (dc *DataCenter) Topology() *power.Topology { return dc.topo }

// Store exposes the telemetry store (nil unless sampling was enabled).
func (dc *DataCenter) Store() *telemetry.Store { return dc.store }

// Frames exposes the facility's columnar telemetry frame (nil unless
// sampling was enabled). Column layout: server i's power and utilization
// occupy columns 2i and 2i+1; zone z's inlet temperature is column
// 2*Fleet().Size()+z (see ZoneInletColumn). Live exporters read the
// open row through FrameWriter.LatestInto instead of re-aggregating.
func (dc *DataCenter) Frames() *telemetry.FrameWriter { return dc.frames }

// ZoneInletColumn reports the frame column holding zone z's inlet
// temperature.
func (dc *DataCenter) ZoneInletColumn(z int) int { return 2*dc.fleet.Size() + z }

// SampleEvery reports the telemetry sampling period (0 when disabled).
func (dc *DataCenter) SampleEvery() time.Duration { return dc.cfg.SampleEvery }

// ZoneOfServer reports the cooling zone of server i.
func (dc *DataCenter) ZoneOfServer(i int) int { return dc.zoneOf[i] }

// RackOfServer reports the power-tree rack of server i (indices track the
// fleet's current activation order).
func (dc *DataCenter) RackOfServer(i int) int { return dc.rackOf[i] }

// ServersInZone returns the indexes of servers in zone z. The slice is
// the data center's precomputed index (rebuilt on reorder): do not
// mutate.
func (dc *DataCenter) ServersInZone(z int) []int { return dc.zoneServers[z] }

// rebuildZoneIndex recomputes the zone→servers index and per-zone
// minimum trip thresholds from the current order-indexed zone map, and —
// for zones big enough to shard — the per-zone shard lists plus the
// slot-level routing map the sharded trip scan folds its deltas through.
func (dc *DataCenter) rebuildZoneIndex() {
	if dc.zoneServers == nil {
		dc.zoneServers = make([][]int, dc.room.Zones())
		dc.zoneMinTripC = make([]float64, dc.room.Zones())
		dc.zoneShards = make([][]par.Range, dc.room.Zones())
	}
	for z := range dc.zoneServers {
		dc.zoneServers[z] = dc.zoneServers[z][:0]
		dc.zoneMinTripC[z] = math.Inf(1)
		dc.zoneShards[z] = nil
	}
	servers := dc.fleet.Servers()
	for i, z := range dc.zoneOf {
		dc.zoneServers[z] = append(dc.zoneServers[z], i)
		if t := servers[i].Config().TripTempC; t < dc.zoneMinTripC[z] {
			dc.zoneMinTripC[z] = t
		}
	}
	for z, list := range dc.zoneServers {
		// The shard/serial choice depends only on the zone's size, so the
		// scan's float grouping — and therefore every downstream bit — is
		// the same for every worker count. A zone above the cutoff implies
		// the fleet is above it too, so the fleet's routing plumbing exists.
		if len(list) <= parCutoff {
			continue
		}
		dc.zoneShards[z] = par.Shards(len(list))
		if dc.physRoute == nil {
			dc.physRoute = make([]int32, dc.fleet.Size())
			dc.tripCnt = make([]padCount, par.MaxShards)
		}
		for sh, r := range dc.zoneShards[z] {
			for k := r.Lo; k < r.Hi; k++ {
				dc.physRoute[dc.fleet.slotOfPos[list[k]]] = int32(sh)
			}
		}
	}
}

// Attach wires the facility onto the engine: room physics and CRAC
// control, the heat/thermal-protection coupling loop, and telemetry
// sampling. Idempotent per instance.
func (dc *DataCenter) Attach() (sim.Cancel, error) {
	if dc.attached {
		return nil, fmt.Errorf("core: data center already attached")
	}
	dc.attached = true
	dc.cancels = append(dc.cancels, dc.room.Attach(dc.engine))

	// Couple servers ↔ room on the physics tick: zone heat in, inlet
	// temperatures (and protective trips, §2.2) out. Zone heat comes from
	// the fleet's maintained per-zone sums and the trip scan only enters
	// zones whose inlet exceeds the zone's lowest trip threshold, so the
	// steady-state tick is O(zones), not O(servers).
	dc.cancels = append(dc.cancels, dc.engine.Every(dc.room.PhysicsTick(), func(e *sim.Engine) {
		now := e.Now()
		servers := dc.fleet.Servers()
		for z := 0; z < dc.room.Zones(); z++ {
			if err := dc.room.SetZoneHeat(z, dc.fleet.ZonePowerW(z)); err != nil {
				panic(fmt.Sprintf("core: zone heat: %v", err)) // zones validated at construction
			}
		}
		for z := range dc.zoneServers {
			inlet := dc.room.ZoneInletC(z)
			if inlet <= dc.zoneMinTripC[z] {
				continue
			}
			if shards := dc.zoneShards[z]; shards != nil {
				dc.tripped += dc.scanZoneSharded(now, inlet, dc.zoneServers[z], shards)
				continue
			}
			for _, i := range dc.zoneServers[z] {
				if servers[i].ObserveInlet(now, inlet) {
					dc.tripped++
				}
			}
		}
	}))

	if dc.store != nil {
		dc.cancels = append(dc.cancels, dc.engine.Every(dc.cfg.SampleEvery, func(e *sim.Engine) {
			dc.sample(e.Now())
		}))
	}
	return func() {
		for _, c := range dc.cancels {
			c()
		}
	}, nil
}

// scanZoneSharded is the trip scan for one hot zone, fanned out over the
// zone's shard list. ObserveInlet advances each server and may trip it;
// the resulting power/energy/state deltas route to per-shard
// accumulators (merged in shard order at endShardPhase), and each shard
// counts its trips into a padded counter folded serially afterwards.
func (dc *DataCenter) scanZoneSharded(now time.Duration, inlet float64, list []int, shards []par.Range) int {
	f := dc.fleet
	servers := f.servers
	f.beginShardPhase(dc.physRoute)
	f.pool.RunRanges(shards, func(sh int, r par.Range) {
		var n int64
		for k := r.Lo; k < r.Hi; k++ {
			if servers[list[k]].ObserveInlet(now, inlet) {
				n++
			}
		}
		dc.tripCnt[sh].v = n
	})
	f.endShardPhase()
	total := 0
	for sh := range shards {
		total += int(dc.tripCnt[sh].v)
		dc.tripCnt[sh].v = 0
	}
	return total
}

// sample pushes one telemetry round into the store as a single columnar
// frame append. Power is piecewise-constant between events, so no
// per-server Sync is needed to read it; the fleet's running sums are
// rebased here periodically to shed incremental float drift. On sharded
// fleets the per-server columns fill in parallel — pure slot-local reads
// into disjoint frame columns, so the frame is identical to the serial
// fill — and the columnar fold inside AppendPar fans out per column.
// MaybeRebase stays strictly serial, once per round, after the append.
func (dc *DataCenter) sample(now time.Duration) {
	servers := dc.fleet.Servers()
	f := dc.fleet
	if f.shards != nil {
		f.pool.RunRanges(f.shards, func(_ int, r par.Range) {
			for i := r.Lo; i < r.Hi; i++ {
				s := servers[i]
				dc.frameBuf[2*i] = s.Power()
				dc.frameBuf[2*i+1] = s.Utilization()
			}
		})
	} else {
		for i, s := range servers {
			dc.frameBuf[2*i] = s.Power()
			dc.frameBuf[2*i+1] = s.Utilization()
		}
	}
	base := 2 * len(servers)
	for z := 0; z < dc.room.Zones(); z++ {
		dc.frameBuf[base+z] = dc.room.ZoneInletC(z)
	}
	if err := dc.frames.AppendPar(now, dc.frameBuf, f.pool); err != nil {
		panic(fmt.Sprintf("core: telemetry: %v", err)) // single writer, monotone time
	}
	dc.fleet.MaybeRebase()
}

// PreferCoolingSensitiveZones reorders the fleet so servers in zones the
// CRACs regulate well activate first and shed last — the mechanism behind
// avoiding the §5.1 migration hazard (keep load where the cooling can see
// it). Call before the manager starts.
func (dc *DataCenter) PreferCoolingSensitiveZones() error {
	idx := make([]int, dc.fleet.Size())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return dc.room.ZoneSensitivity(dc.zoneOf[idx[a]]) >
			dc.room.ZoneSensitivity(dc.zoneOf[idx[b]])
	})
	if err := dc.fleet.Reorder(idx); err != nil {
		return err
	}
	zoneOf := make([]int, len(dc.zoneOf))
	rackOf := make([]int, len(dc.rackOf))
	for i, p := range idx {
		zoneOf[i] = dc.zoneOf[p]
		rackOf[i] = dc.rackOf[p]
	}
	dc.zoneOf, dc.rackOf = zoneOf, rackOf
	dc.rebuildZoneIndex()
	return nil
}

// Trips reports protective shutdowns observed through the coupling loop.
func (dc *DataCenter) Trips() int { return dc.tripped }

// ITPowerW reports the instantaneous fleet draw.
func (dc *DataCenter) ITPowerW() float64 { return dc.fleet.PowerW() }

// Flow evaluates the power tree.
func (dc *DataCenter) Flow() power.Flow { return dc.topo.Feed.Evaluate() }

// PUEAt computes the facility PUE under the given outside conditions:
// IT power from the fleet, distribution losses from the tree, plant power
// for removing the room's current cooling load.
func (dc *DataCenter) PUEAt(outsideC, outsideRH float64) (float64, cooling.PlantPower, error) {
	it := dc.ITPowerW()
	flow := dc.Flow()
	plant, err := dc.cfg.Plant.Power(dc.room.CoolingLoadW(), outsideC, outsideRH)
	if err != nil {
		return 0, plant, err
	}
	pue, err := cooling.PUE(it, flow.TotalLoss(), plant.TotalW())
	return pue, plant, err
}
