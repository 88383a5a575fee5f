// Package serve runs the simulation as a long-lived process and exposes
// it over HTTP: an OpenMetrics exposition at /metrics, a JSON snapshot
// API, and a Server-Sent Events stream of periodic snapshots.
//
// The paper's elastic power-management loops are continuous: operators
// watch fleet power, inlet temperatures, PUE, and carbon intensity as
// the facility tracks demand. Batch experiments (internal/exp) replay
// those dynamics and summarize; this package keeps the same engine alive
// on a paced virtual clock so the dynamics can be observed while they
// happen — with any OpenMetrics scraper, a curl of the snapshot API, or
// an EventSource in a browser.
//
// # One pacer, two kinds
//
// There is one serving path. A pacer owns the virtual clock, the SSE
// cadence, the broadcaster, and the HTTP handlers, and drives a small
// stepper interface: read the clock, advance to a target, build a
// snapshot, stamp its sequence number, and render /metrics. Two kinds
// plug into it. Server steps a single facility (one sim.Engine) and
// integrates its emissions after every step; GeoServer steps a
// geo.Federation and reports carbon per site. Everything else —
// pacing, locking, the stream, and the endpoints — is shared.
//
// # Pacing and determinism
//
// The pacer is the simulation's only driver. Run advances it in short
// virtual slices sized so that virtual time tracks wall time times
// Options.Speedup. Slicing is outcome-neutral: the event order, every
// model state, and the telemetry frames are byte-identical to one
// monolithic run over the same horizon (an engine's heap ordering and
// RNG consumption depend only on events, never on where Run calls
// pause, and a federation's barriers fire at fixed epoch boundaries).
// The pacer never injects Sync or Rebase calls of its own — those would
// perturb float summation order and break replay equivalence with batch
// mode.
//
// # Concurrency
//
// The engine and every model hanging off it are single-threaded by
// design, and a federation's sites mutate only inside its AdvanceTo,
// even in parallel mode. The pacer serializes access with one RWMutex:
// it advances under the write lock, HTTP handlers copy a snapshot out
// under the read lock and render outside it. Zone inlet temperatures
// are read from the open row of the facility's columnar telemetry frame
// (one memcpy via FrameWriter.LatestInto) and fleet/rack/zone power from
// the fleet's O(1) maintained aggregates, so a scrape costs microseconds
// and never re-aggregates per-server state.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/carbon"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Source bundles the live simulation objects a Server exposes. Engine
// and Fleet are required; the rest widen the exposition when present.
type Source struct {
	// Engine is the virtual clock and event kernel. The Server becomes
	// its sole driver; nothing else may call Run once serving starts.
	Engine *sim.Engine
	// Fleet is the server pool the power metrics come from.
	Fleet *core.Fleet
	// Manager, when set, adds policy mode, decision counts, and SLA
	// tracking to the exposition.
	Manager *core.Manager
	// DC, when set, adds the facility view: per-rack/zone power, zone
	// inlets from the telemetry frame, distribution losses, and PUE.
	DC *core.DataCenter
	// Degrader, when set, adds graceful-degradation state.
	Degrader *core.Degrader
	// Admission, when set, adds request-level user outcomes (admission,
	// rejection, degradation, per-class SLO misses). When nil, the
	// Manager's admission controller (if any) is used.
	Admission *workload.Admission
	// Retry, when set, adds closed-loop retry metrics (retried and
	// abandoned users, goodput, amplification, breaker state). When
	// nil, the Manager's retry loop (if any) is used; its wrapped
	// admission controller also backs the user-outcome view.
	Retry *workload.RetryLoop
}

// Options tunes the pacer and the exposition.
type Options struct {
	// Speedup is virtual seconds per wall second; must be positive and
	// small enough that one Slice of virtual time fits a Duration.
	// 1 is real time; 3600 runs a day in 24 wall seconds.
	Speedup float64
	// Horizon stops the virtual clock there (0: run until ctx ends).
	Horizon time.Duration
	// Slice is the wall-clock pacing quantum (default 50ms). Virtual
	// time advances by Slice*Speedup per step.
	Slice time.Duration
	// EmitEvery is the SSE cadence in virtual time (default 15s). At
	// most one event is published per pacer step even when a step
	// crosses several cadence boundaries.
	EmitEvery time.Duration
	// Carbon is the grid-intensity model (zero value: DefaultModel).
	Carbon carbon.Model
	// OutsideC / OutsideRH are the outdoor conditions PUE is evaluated
	// at (defaults 18°C, 0.5 when both are zero).
	OutsideC  float64
	OutsideRH float64
}

// Validate reports whether NewServer and NewGeoServer would accept the
// options; it leaves o untouched.
func (o Options) Validate() error { return o.withDefaults() }

func (o *Options) withDefaults() error {
	if !(o.Speedup > 0) || math.IsInf(o.Speedup, 1) {
		return fmt.Errorf("serve: speedup %v must be positive and finite", o.Speedup)
	}
	if o.Horizon < 0 {
		return fmt.Errorf("serve: negative horizon %v", o.Horizon)
	}
	if o.Slice == 0 {
		o.Slice = 50 * time.Millisecond
	}
	if o.Slice < 0 {
		return fmt.Errorf("serve: negative slice %v", o.Slice)
	}
	// Run converts Slice*Speedup to a Duration; past 2^63 ns the
	// conversion wraps and the pacer would crawl at 1 ns per slice.
	if float64(o.Slice)*o.Speedup >= math.MaxInt64 {
		return fmt.Errorf("serve: speedup %v overflows the %v slice's virtual step", o.Speedup, o.Slice)
	}
	if o.EmitEvery == 0 {
		o.EmitEvery = 15 * time.Second
	}
	if o.EmitEvery < 0 {
		return fmt.Errorf("serve: negative emit period %v", o.EmitEvery)
	}
	if o.Carbon == (carbon.Model{}) {
		o.Carbon = carbon.DefaultModel()
	}
	if err := o.Carbon.Validate(); err != nil {
		return err
	}
	if o.OutsideC == 0 && o.OutsideRH == 0 {
		o.OutsideC, o.OutsideRH = 18, 0.5
	}
	if math.IsNaN(o.OutsideC) || math.IsInf(o.OutsideC, 0) {
		return fmt.Errorf("serve: outside temperature %v must be finite", o.OutsideC)
	}
	if !(o.OutsideRH > 0 && o.OutsideRH <= 1) {
		return fmt.Errorf("serve: outside RH %v out of (0,1]", o.OutsideRH)
	}
	return nil
}

// stepper is what the pacer needs from the simulation it drives: read
// the virtual clock, advance it to a target, capture a snapshot, stamp
// a snapshot with its SSE sequence number, and render one as an
// OpenMetrics exposition. The pacer holds its write lock around advance
// and its read lock around now and snapshotLocked; stamp and render see
// only the copied snapshot.
type stepper[S any] interface {
	now() time.Duration
	advance(target time.Duration) error
	snapshotLocked() S
	stamp(snap S, seq uint64) S
	render(buf *bytes.Buffer, snap S, scrapes uint64)
}

// pacer is the single serving path: it paces a stepper against the wall
// clock, publishes snapshots on the SSE cadence, and serves the HTTP
// endpoints. Server and GeoServer embed it, so its exported methods are
// theirs.
type pacer[S any] struct {
	stepper stepper[S]
	// mu serializes the simulation (write side: AdvanceTo) against
	// snapshot readers (read side: HTTP handlers). Everything reachable
	// from the stepper is guarded by it.
	mu   sync.RWMutex
	opts Options

	// seq numbers published SSE events; scrapes counts /metrics hits.
	// Atomic because handlers read them under the shared read lock
	// while the pacer bumps seq between steps.
	seq     atomic.Uint64
	scrapes atomic.Uint64

	// nextEmit is the next virtual-time SSE boundary; pacer-only.
	nextEmit time.Duration

	sse       *broadcaster
	frameBufs sync.Pool
	bufs      sync.Pool
}

// init wires the pacer to its stepper with validated options and
// anchors the SSE cadence at the current clock, so restarts from a
// warm simulation do not back-fill.
func (p *pacer[S]) init(st stepper[S], opts Options) {
	p.stepper = st
	p.opts = opts
	p.sse = newBroadcaster()
	p.frameBufs.New = func() any { return []float64(nil) }
	p.bufs.New = func() any { return new(bytes.Buffer) }
	p.nextEmit = st.now() + opts.EmitEvery
}

// Options reports the effective options after defaulting.
func (p *pacer[S]) Options() Options { return p.opts }

// AdvanceTo drives the simulation to the target virtual time under the
// write lock; a target behind the clock is clamped to it. It is the
// only path that mutates simulation state; Run calls it on a wall-clock
// pace, and tests call it directly for deterministic stepping.
func (p *pacer[S]) AdvanceTo(target time.Duration) error {
	p.mu.Lock()
	err := p.stepper.advance(max(target, p.stepper.now()))
	p.mu.Unlock()
	if err != nil {
		return err
	}
	p.emitIfDue()
	return nil
}

// emitIfDue publishes one SSE snapshot when the virtual clock has
// crossed the next cadence boundary. Called only from the pacer
// goroutine (via AdvanceTo), so nextEmit needs no lock of its own.
func (p *pacer[S]) emitIfDue() {
	p.mu.RLock()
	now := p.stepper.now()
	due := now >= p.nextEmit
	var snap S
	if due {
		snap = p.stepper.snapshotLocked()
	}
	p.mu.RUnlock()
	if !due {
		return
	}
	// Skip boundaries the step overran: one event per pacer step keeps
	// the wall-clock publish rate bounded at high speedups.
	for p.nextEmit <= now {
		p.nextEmit += p.opts.EmitEvery
	}
	seq := p.seq.Add(1)
	if frame, err := sseFrame(seq, "snapshot", p.stepper.stamp(snap, seq)); err == nil {
		p.sse.publish(frame)
	}
}

// Run paces the simulation until ctx is cancelled or the horizon is
// reached. Virtual time tracks wall time times Speedup; if a slice
// takes longer to simulate than its wall quantum, the loop simply runs
// behind (it never skips virtual time to catch up, which would change
// outcomes versus batch mode).
func (p *pacer[S]) Run(ctx context.Context) error {
	tick := time.NewTicker(p.opts.Slice)
	defer tick.Stop()
	step := time.Duration(float64(p.opts.Slice) * p.opts.Speedup)
	if step <= 0 {
		step = 1
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		p.mu.RLock()
		target := p.stepper.now() + step
		p.mu.RUnlock()
		// The step that reaches the horizon is the last.
		last := p.opts.Horizon > 0 && target >= p.opts.Horizon
		if last {
			target = p.opts.Horizon
		}
		if err := p.AdvanceTo(target); err != nil || last {
			return err
		}
	}
}

// snapshot captures a consistent view under the read lock and returns
// it with the sequence number it was stamped with.
func (p *pacer[S]) snapshot() (S, uint64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	snap := p.stepper.snapshotLocked()
	seq := p.seq.Load()
	return p.stepper.stamp(snap, seq), seq
}

// Snapshot captures a consistent view of the simulation under the read
// lock.
func (p *pacer[S]) Snapshot() S {
	snap, _ := p.snapshot()
	return snap
}

// Shutdown ends the SSE side of the server gracefully: every connected
// stream receives one final "shutdown" event carrying the closing
// snapshot, then its channel is closed so the handler drains and
// returns. Scrape and snapshot endpoints keep answering until the HTTP
// server itself stops; call this before http.Server.Shutdown so stream
// handlers exit inside its drain window. Safe to call more than once.
func (p *pacer[S]) Shutdown() {
	snap, seq := p.snapshot()
	final, _ := sseFrame(seq, "shutdown", snap)
	p.sse.shutdown(final)
}

// Handler returns the HTTP mux: /metrics (OpenMetrics), /api/v1/snapshot
// (JSON), /api/v1/stream (SSE), and /healthz.
func (p *pacer[S]) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/api/v1/snapshot", p.handleSnapshot)
	mux.HandleFunc("/api/v1/stream", p.handleStream)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// handleMetrics serves /metrics in the OpenMetrics text format. The
// snapshot is taken under the read lock; rendering happens outside it
// into a pooled buffer.
func (p *pacer[S]) handleMetrics(w http.ResponseWriter, r *http.Request) {
	scrapes := p.scrapes.Add(1)
	snap := p.Snapshot()
	buf := p.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	p.stepper.render(buf, snap, scrapes)
	w.Header().Set("Content-Type", ContentType)
	_, _ = w.Write(buf.Bytes())
	p.bufs.Put(buf)
}

// handleSnapshot serves /api/v1/snapshot as pretty-printed JSON.
func (p *pacer[S]) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := p.Snapshot()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Server paces a single simulation and serves its state over HTTP.
type Server struct {
	pacer[Snapshot]
	src   Source
	meter *carbon.Meter
}

// NewServer validates the wiring and builds a server around the
// simulation. The engine may already have virtual time on the clock
// (e.g. a warm-up run); serving continues from there.
func NewServer(src Source, opts Options) (*Server, error) {
	if src.Engine == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	if src.Fleet == nil {
		return nil, fmt.Errorf("serve: nil fleet")
	}
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	meter, err := carbon.NewMeter(opts.Carbon)
	if err != nil {
		return nil, err
	}
	// Anchor the emissions meter at the current clock, like the SSE
	// cadence.
	if err := meter.Observe(src.Engine.Now(), src.Fleet.EnergyJ()); err != nil {
		return nil, err
	}
	s := &Server{src: src, meter: meter}
	s.init(s, opts)
	return s, nil
}

func (s *Server) now() time.Duration { return s.src.Engine.Now() }

// advance runs the engine to target and integrates emissions over the
// step.
func (s *Server) advance(target time.Duration) error {
	if err := s.src.Engine.Run(target); err != nil {
		return err
	}
	return s.meter.Observe(s.src.Engine.Now(), s.src.Fleet.EnergyJ())
}

func (s *Server) stamp(snap Snapshot, seq uint64) Snapshot {
	snap.Seq = seq
	return snap
}

func (s *Server) render(buf *bytes.Buffer, snap Snapshot, scrapes uint64) {
	writeMetrics(buf, snap, scrapes)
}
