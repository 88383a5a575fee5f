package main

import (
	"time"

	"repro/internal/sim"
)

// phase names a slice of a facility's event handlers.
type phase int

const (
	phNone phase = iota
	phOther
	phPhysics
	phSample
	phManager
	phEnforce
	phPUE
	phMarker
	// phStep is the rest of a bracketed step after its last event: the
	// kernel's exit, and whatever the stepping call does around the
	// engine (the serve pacer's emissions and SSE snapshot, the geo
	// barrier).
	phStep
	// phTrace is the tracer's own reading of the allocation counter.
	phTrace
	nPhases
)

// tracer attributes the host time of every event fired on the engines
// it is attached to, one at a time, to a phase, from outside the
// simulator. It rides Engine.AfterEvent: the time between two hook
// calls is the time of the event that just fired.
//
// Handlers the facility registers internally (DataCenter.Attach,
// Manager.Start) are found with markers: a benchmark-owned no-op with
// the same period, scheduled immediately before the registering call.
// Events at equal times fire in scheduling order and a periodic event
// keeps its place among the events it fires with, so a marker fires
// just before the handlers it stands for at every tick. A marker claims
// the events that follow it at the same simulated time, until another
// marker or a benchmark-owned handler fires. Events nothing claims
// (server boots and shutdowns, CRAC control) fall to phOther.
//
// Markers are extra events with no effect on the simulation; fired
// markers are counted so the kernel counts can be reported net of them.
type tracer struct {
	allocs *runtimeCounters // nil: time only

	last      time.Time
	lastAlloc uint64

	marked  phase // set by a marker handler for the hook that follows it
	self    phase // set by a benchmark-owned handler for its own event
	claim   phase
	claimAt time.Duration

	markers   int    // markers scheduled
	fired     uint64 // markers fired
	busy      [nPhases]time.Duration
	allocB    [nPhases]uint64
	sampleDur []time.Duration
	wall      time.Duration // sum of the steps the tracer bracketed
}

func newTracer(allocs *runtimeCounters) *tracer { return &tracer{allocs: allocs} }

// attach makes t attribute e's events by its markers.
func (t *tracer) attach(e *sim.Engine) { e.AfterEvent(t.after) }

// attachBy makes t attribute e's events with classify, which names the
// phase of the event that just fired.
func (t *tracer) attachBy(e *sim.Engine, classify func() phase) {
	e.AfterEvent(func(*sim.Engine) { t.account(classify()) })
}

// mark schedules a marker for phase p with the given period. Call it
// immediately before the call that registers the handlers it claims.
func (t *tracer) mark(e *sim.Engine, period time.Duration, p phase) {
	t.markers++
	e.Every(period, func(*sim.Engine) { t.marked = p })
}

// own labels the event in flight as a benchmark-owned handler's.
func (t *tracer) own(p phase) {
	if t != nil {
		t.self = p
	}
}

// bracket runs step, which advances the engine, and adds its wall time
// to the total the attributed phases must account for.
func (t *tracer) bracket(step func() error) error {
	if t.allocs != nil {
		t.lastAlloc = t.allocs.allocBytes()
	}
	start := time.Now()
	t.last = start
	err := step()
	end := time.Now()
	t.busy[phStep] += end.Sub(t.last)
	t.wall += end.Sub(start)
	return err
}

func (t *tracer) after(e *sim.Engine) {
	p := phOther
	switch {
	case t.marked != phNone:
		p = phMarker
		t.fired++
		t.claim, t.claimAt, t.marked = t.marked, e.Now(), phNone
	case t.self != phNone:
		p = t.self
		t.self, t.claim = phNone, phNone
	case t.claim != phNone && e.Now() == t.claimAt:
		p = t.claim
	default:
		t.claim = phNone
	}
	t.account(p)
}

// account charges the time since the previous event to phase p.
func (t *tracer) account(p phase) {
	now := time.Now()
	d := now.Sub(t.last)
	t.last = now
	t.busy[p] += d
	if p == phSample {
		t.sampleDur = append(t.sampleDur, d)
	}
	if t.allocs != nil {
		a := t.allocs.allocBytes()
		t.allocB[p] += a - t.lastAlloc
		t.lastAlloc = a
		// Reading the counter is tracing overhead, not the next event's.
		t.last = time.Now()
		t.busy[phTrace] += t.last.Sub(now)
	}
}

// attributed sums the time the tracer assigned to any phase.
func (t *tracer) attributed() time.Duration {
	var s time.Duration
	for _, d := range t.busy {
		s += d
	}
	return s
}

// eventTime sums the time of fired events, markers included.
func (t *tracer) eventTime() time.Duration {
	return t.attributed() - t.busy[phStep] - t.busy[phTrace]
}
