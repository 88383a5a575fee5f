package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/serve"
)

// servedLog is what one job's scrape loop measured.
type servedLog struct {
	advance  []time.Duration // per slice: AdvanceTo (or Engine.Run) time
	scrape   []time.Duration // per /metrics scrape, CPU time (see get)
	snapshot []time.Duration // per /api/v1/snapshot read, CPU time
	bytes    int             // size of the last exposition
	timed    time.Duration   // advance + scrape + snapshot time
	proc     procDelta       // what the runtime spent during the loop
}

// scrapeOK checks one /metrics response: status 200 and an exposition
// that passes serve.Lint.
func scrapeOK(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", code)
	}
	if err := serve.Lint(body); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	return nil
}

// snapshotOK checks one snapshot response: status 200 and valid JSON.
func snapshotOK(code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("/api/v1/snapshot: status %d", code)
	}
	if !json.Valid(body) {
		return fmt.Errorf("/api/v1/snapshot: invalid JSON")
	}
	return nil
}

// servedLoop advances a job to horizon in slices through advance, and
// after each slice scrapes /metrics (and reads the JSON snapshot when
// snapshots is set) through h in-process, on this one goroutine. Only
// the advance and the requests count toward the timed loop; the checks
// on the responses do not.
func servedLoop(rc runConfig, horizon, slice time.Duration, advance func(time.Duration) error, h http.Handler, snapshots bool, o *outcome) (*servedLog, error) {
	log := &servedLog{}
	before := rc.rc.read()
	for t := slice; ; t += slice {
		if t > horizon {
			t = horizon
		}
		start := time.Now()
		err := advance(t)
		d := time.Since(start)
		log.advance = append(log.advance, d)
		log.timed += d
		if err != nil {
			return log, err
		}
		r := get(h, "/metrics")
		log.scrape = append(log.scrape, r.cpu)
		log.timed += r.wall
		log.bytes = len(r.body)
		o.op(scrapeOK(r.code, r.body))
		if snapshots {
			r := get(h, "/api/v1/snapshot")
			log.snapshot = append(log.snapshot, r.cpu)
			log.timed += r.wall
			o.op(snapshotOK(r.code, r.body))
		}
		if t == horizon {
			log.proc = deltaOf(before, rc.rc.read())
			return log, nil
		}
	}
}
