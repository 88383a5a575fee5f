// Package telemetry is the data-management substrate of §5.3. A 10,000
// server fleet with 100 counters sampled every 15 seconds produces 2.4
// million points per minute; the same data serves long-term trends, daily
// usage patterns, load-balancer correlation after detrending, and anomaly
// detection. The paper's prescription — "preprocessing and indexing the
// data into multiple scales can speed up the query significantly. At the
// same time, raw data out of these bands can be considered as noise and
// be eliminated" — is implemented here as a streaming multi-resolution
// aggregation pyramid (minute, quarter-hour, hour and day buckets) over
// a raw band.
//
// # Bounded retention
//
// Every band of the pyramid is a fixed-capacity ring, so a store's
// memory is set by its configuration and key count, not by how long it
// runs. The raw band keeps the samples of the last RawRetention,
// RawRetention/RawInterval + 1 of them at the configured cadence; each
// aggregate level keeps its open bucket plus the newest LevelRows closed
// ones. A frame of K keys therefore holds at most about
// K × 8 B × (raw rounds + 3 × 4 × LevelRows): one value per raw round,
// and sum, min and max for each of the four levels. A band's ring is
// allocated in full on its first write, never at construction, so a
// level that never closes a bucket costs nothing. Every key is a column
// of a frame — a key that Store.Append meets first is a one-column frame
// — so all keys share the one ring mechanism and the same retention, and
// queries return buckets in time order across the ring's wrap.
//
// # Concurrency contract
//
// A Store is safe for concurrent use: any number of goroutines may mix
// appends (Store.Append, FrameWriter.Append and AppendPar) with reads
// (Query, Stats, Keys, the derived analyses, and FrameWriter.LatestInto).
// There are two kinds of lock: the store's key registry lock, and one
// lock per FrameWriter over its columns. A call takes the registry lock
// first, if at all, and then at most one writer lock; no path takes the
// registry lock while holding a writer lock, so the lock order is
// acyclic. Appends and queries hold the registry lock only to resolve
// their key, so ingest into one frame never blocks a read of another.
//
// Reads are internally consistent but only per call: a Query observes
// one atomic state of its frame (no torn open-tail buckets), while a
// sequence of calls (e.g. Stats then Query, or the multi-Query derived
// analyses) may straddle concurrent appends. Per-key sample ordering
// remains the appender's obligation: timestamps per key (and per frame)
// must be non-decreasing regardless of which goroutine delivers them.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// Resolution names one level of the aggregation pyramid.
type Resolution int

// Pyramid levels, finest first.
const (
	ResRaw Resolution = iota + 1
	ResMinute
	ResQuarter
	ResHour
	ResDay
)

// String renders the resolution.
func (r Resolution) String() string {
	switch r {
	case ResRaw:
		return "raw"
	case ResMinute:
		return "1m"
	case ResQuarter:
		return "15m"
	case ResHour:
		return "1h"
	case ResDay:
		return "1d"
	default:
		return fmt.Sprintf("res(%d)", int(r))
	}
}

// Interval returns the bucket width of a resolution given the raw
// sampling interval.
func (r Resolution) Interval(raw time.Duration) (time.Duration, error) {
	switch r {
	case ResRaw:
		return raw, nil
	case ResMinute:
		return time.Minute, nil
	case ResQuarter:
		return 15 * time.Minute, nil
	case ResHour:
		return time.Hour, nil
	case ResDay:
		return 24 * time.Hour, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown resolution %d", int(r))
	}
}

// Bucket is one aggregated interval.
type Bucket struct {
	// Start is the bucket's inclusive start time.
	Start time.Duration
	// Count, Sum, Min, Max summarize the folded samples.
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns Sum/Count (0 for an empty bucket).
func (b Bucket) Mean() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// Config configures a Store.
type Config struct {
	// RawInterval is the base sampling period (the paper uses 15 s). It
	// sizes the raw ring: RawRetention/RawInterval + 1 samples, allocated
	// on a key's first sample. Samples that arrive faster grow the ring.
	RawInterval time.Duration
	// RawRetention bounds how long raw points are kept; zero keeps
	// everything.
	RawRetention time.Duration
	// LevelRows is the number of closed buckets each aggregate level
	// keeps, oldest evicted first; zero keeps every bucket. The levels
	// are the "bands" of interest, and their history is bounded the same
	// way the raw band is: data outside the bands "can be considered as
	// noise and be eliminated".
	LevelRows int
}

// DefaultConfig matches the paper's scenario: 15-second samples, one hour
// of raw retention, and 60 closed buckets per level — an hour of
// minutes, 15 hours of quarters, 60 hours of hours and 60 days.
func DefaultConfig() Config {
	return Config{RawInterval: 15 * time.Second, RawRetention: time.Hour, LevelRows: 60}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.RawInterval <= 0 {
		return fmt.Errorf("telemetry: raw interval %v must be positive", c.RawInterval)
	}
	if c.RawRetention < 0 {
		return fmt.Errorf("telemetry: raw retention %v must be non-negative", c.RawRetention)
	}
	if c.LevelRows < 0 {
		return fmt.Errorf("telemetry: level rows %d must be non-negative", c.LevelRows)
	}
	return nil
}

// Store is a multi-resolution time-series store, safe for concurrent
// appends and queries.
type Store struct {
	cfg Config
	// rawRows sizes each raw ring's first allocation: the samples one
	// retention window holds at RawInterval (0 with no retention).
	rawRows int
	// mu guards frames, the key registry: each key's frame writer and
	// column.
	mu     sync.RWMutex
	frames map[string]frameRef
}

// NewStore builds a store.
func NewStore(cfg Config) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Store{cfg: cfg, frames: make(map[string]frameRef)}
	if cfg.RawRetention > 0 {
		s.rawRows = int(cfg.RawRetention/cfg.RawInterval) + 1
	}
	return s, nil
}

// Append ingests one sample. Timestamps per key must be non-decreasing
// (collection pipelines deliver in order); regressions are rejected. A
// key Append has not seen becomes a one-column frame; pipelines that
// append one key repeatedly can take that frame's writer from
// Frames([]string{key}) instead and skip the per-point key lookup. Keys
// of a wider frame are appended through its FrameWriter.
func (s *Store) Append(key string, t time.Duration, v float64) error {
	s.mu.RLock()
	ref, ok := s.frames[key]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		if ref, ok = s.frames[key]; !ok {
			ref = frameRef{w: s.newFrame([]string{key})}
		}
		s.mu.Unlock()
	}
	if len(ref.w.keys) != 1 {
		return fmt.Errorf("telemetry: key %q belongs to a frame; append through its FrameWriter", key)
	}
	round := [1]float64{v}
	return ref.w.Append(t, round[:])
}

// Keys returns all stored keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	keys := make([]string, 0, len(s.frames))
	for k := range s.frames {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Stats summarizes storage.
type Stats struct {
	// Keys is the number of series.
	Keys int
	// RawPoints is the number of retained raw samples.
	RawPoints int64
	// DroppedRaw is the number of raw samples discarded by retention.
	DroppedRaw int64
	// AggBuckets is the total bucket count across all levels.
	AggBuckets int64
}

// Stats reports storage accounting — the §5.3 storage-reduction measure.
func (s *Store) Stats() Stats {
	var out Stats
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ref := range s.frames {
		if ref.col == 0 {
			ref.w.stats(&out)
		}
	}
	return out
}

// Query returns the buckets of key overlapping [from, to) at the given
// resolution. Raw queries synthesize one bucket per sample from the
// retained raw band. A query holds the registry lock only to resolve
// key, then reads under its frame's lock alone.
func (s *Store) Query(key string, from, to time.Duration, res Resolution) ([]Bucket, error) {
	if to < from {
		return nil, fmt.Errorf("telemetry: inverted range [%v, %v)", from, to)
	}
	s.mu.RLock()
	ref, ok := s.frames[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("telemetry: unknown key %q", key)
	}
	return ref.w.query(ref.col, from, to, res)
}

func levelIndex(res Resolution) (int, error) {
	switch res {
	case ResMinute:
		return 0, nil
	case ResQuarter:
		return 1, nil
	case ResHour:
		return 2, nil
	case ResDay:
		return 3, nil
	default:
		return 0, fmt.Errorf("telemetry: resolution %v has no aggregate level", res)
	}
}

// DailyAverages returns the per-day mean of a key — the long-term trend
// query ("predict long term usage trend (e.g. by performing daily
// average)").
func (s *Store) DailyAverages(key string) ([]float64, error) {
	bs, err := s.Query(key, 0, 1<<62, ResDay)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(bs))
	for _, b := range bs {
		out = append(out, b.Mean())
	}
	return out, nil
}

// HourlyPattern returns the mean value per hour-of-day — the usage-pattern
// query ("understand usage patterns within a day (e.g. by performing
// hourly average)").
func (s *Store) HourlyPattern(key string) ([24]float64, error) {
	var sums [24]float64
	var counts [24]int64
	bs, err := s.Query(key, 0, 1<<62, ResHour)
	if err != nil {
		return [24]float64{}, err
	}
	for _, b := range bs {
		h := int(b.Start/time.Hour) % 24
		sums[h] += b.Sum
		counts[h] += b.Count
	}
	var out [24]float64
	for h := range out {
		if counts[h] > 0 {
			out[h] = sums[h] / float64(counts[h])
		}
	}
	return out, nil
}

// CorrelateDetrended computes the Pearson correlation of two keys at the
// given resolution after removing each series' own trend with a centered
// moving average — the load-balancer-behaviour query ("by performing
// correlations after removing the hourly trend").
func (s *Store) CorrelateDetrended(key1, key2 string, res Resolution, window int) (float64, error) {
	a, err := s.Query(key1, 0, 1<<62, res)
	if err != nil {
		return 0, err
	}
	b, err := s.Query(key2, 0, 1<<62, res)
	if err != nil {
		return 0, err
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < window {
		return 0, fmt.Errorf("telemetry: %d aligned buckets below detrend window %d", n, window)
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = a[i].Mean()
		ys[i] = b[i].Mean()
	}
	dx, err := stats.Detrend(xs, window)
	if err != nil {
		return 0, err
	}
	dy, err := stats.Detrend(ys, window)
	if err != nil {
		return 0, err
	}
	return stats.Correlation(dx, dy)
}

// Anomaly is one detected outlier.
type Anomaly struct {
	// At is the bucket start time.
	At time.Duration
	// Value is the observed bucket mean.
	Value float64
	// Score is the robust z-score against the hour-of-day pattern.
	Score float64
}

// Anomalies flags minute buckets whose mean deviates from the key's
// hour-of-day pattern by more than zThreshold standard deviations — the
// spike-detection query ("detect anomalies (e.g. by monitoring unusually
// spikes)").
func (s *Store) Anomalies(key string, zThreshold float64) ([]Anomaly, error) {
	if zThreshold <= 0 {
		return nil, fmt.Errorf("telemetry: z threshold %v must be positive", zThreshold)
	}
	pattern, err := s.HourlyPattern(key)
	if err != nil {
		return nil, err
	}
	bs, err := s.Query(key, 0, 1<<62, ResMinute)
	if err != nil {
		return nil, err
	}
	// Residual spread vs the hourly pattern.
	var resid stats.Running
	for _, b := range bs {
		h := int(b.Start/time.Hour) % 24
		resid.Add(b.Mean() - pattern[h])
	}
	sd := resid.StdDev()
	if sd == 0 {
		return nil, nil
	}
	var out []Anomaly
	for _, b := range bs {
		h := int(b.Start/time.Hour) % 24
		z := (b.Mean() - pattern[h] - resid.Mean()) / sd
		if math.Abs(z) >= zThreshold {
			out = append(out, Anomaly{At: b.Start, Value: b.Mean(), Score: z})
		}
	}
	return out, nil
}
