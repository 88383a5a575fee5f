package telemetry

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/par"
)

// FrameWriter ingests fleet-synchronous telemetry: a fixed set of keys
// that are all sampled at the same instant, every round — the §5.3
// collector shape, where one sweep reads every server's counters at
// once. Because the timestamp is shared, the whole frame has one
// ordering check, one bucket boundary per pyramid level, and one count
// per bucket; per-key state reduces to sum/min/max columns stored as
// contiguous slabs. One round is therefore a handful of sequential
// array writes instead of per-key pyramid walks — the structure-of-
// arrays ingest path that keeps a 10,000-server sample round cache-
// friendly.
//
// Framed keys live in the parent Store's namespace: Query, Stats, Keys
// and the derived analyses (DailyAverages, HourlyPattern, Anomalies,
// CorrelateDetrended) see identical buckets to what per-point ingestion
// of the same values would have produced.
type FrameWriter struct {
	store *Store
	keys  []string

	mu     sync.RWMutex
	lastT  time.Duration
	hasAny bool
	// Raw band: a ring of retained rounds, one timestamp per slot and
	// values row-major (slot s's values are rawV[s*K : (s+1)*K]).
	raw           ring
	rawT          []time.Duration
	rawV          []float64
	droppedRounds int64
	levels        [4]frameLevel
	// colShards partitions the column space for AppendPar, fixed at
	// construction (a pure function of the frame width).
	colShards []par.Range
}

// frameLevel is one aggregation level of the frame pyramid. The open
// bucket is columnar: a shared start/count plus K-wide sum/min/max
// columns; closing a bucket copies the columns into the closed ring.
type frameLevel struct {
	width  time.Duration
	curEnd time.Duration // exclusive end of the open bucket; 0 while empty
	curCnt int64
	curSum []float64
	curMin []float64
	curMax []float64
	// Closed buckets: a ring with starts/counts per slot and value
	// columns row-major (slot s, key k at [s*K+k]).
	closed ring
	starts []time.Duration
	counts []int64
	sums   []float64
	mins   []float64
	maxs   []float64
}

// frameRef resolves a framed key to its writer and column.
type frameRef struct {
	w   *FrameWriter
	col int
}

// Frames declares keys as one synchronously-sampled frame and returns
// its writer. The keys must be distinct and must not already exist in
// the store (as plain series or in another frame); they are created
// empty. Lock order: the store's frame registry is always acquired
// before any shard lock.
func (s *Store) Frames(keys []string) (*FrameWriter, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("telemetry: frame needs at least one key")
	}
	s.framesMu.Lock()
	defer s.framesMu.Unlock()
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return nil, fmt.Errorf("telemetry: duplicate frame key %q", k)
		}
		seen[k] = true
		if _, ok := s.frames[k]; ok {
			return nil, fmt.Errorf("telemetry: key %q already belongs to a frame", k)
		}
		sh := s.shardFor(k)
		sh.mu.RLock()
		_, exists := sh.series[k]
		sh.mu.RUnlock()
		if exists {
			return nil, fmt.Errorf("telemetry: key %q already exists as a plain series", k)
		}
	}
	w := &FrameWriter{store: s, keys: append([]string(nil), keys...)}
	k := len(keys)
	w.colShards = par.Shards(k)
	for i := range w.levels {
		// Cache-line-aligned columns: AppendPar shards these by column
		// range on 64-byte boundaries, so aligned bases keep concurrent
		// shards off each other's lines.
		w.levels[i] = frameLevel{
			curSum: par.AlignedFloats(k),
			curMin: par.AlignedFloats(k),
			curMax: par.AlignedFloats(k),
		}
	}
	w.levels[0].width = time.Minute
	w.levels[1].width = 15 * time.Minute
	w.levels[2].width = time.Hour
	w.levels[3].width = 24 * time.Hour
	for col, key := range w.keys {
		s.frames[key] = frameRef{w: w, col: col}
	}
	s.frameWriters = append(s.frameWriters, w)
	return w, nil
}

// Keys returns the frame's key set in column order.
func (w *FrameWriter) Keys() []string { return append([]string(nil), w.keys...) }

// Width returns the number of columns (keys) in the frame.
func (w *FrameWriter) Width() int { return len(w.keys) }

// LatestInto copies the most recent round's values into dst (which must
// have at least Width elements) and returns the round's timestamp. It
// reports false if no round has been ingested yet. This is the
// zero-copy scrape path for live exporters: one memcpy of the open row
// under the frame's read lock — no bucket materialization, no
// aggregation, and no contention with the store's shard locks.
func (w *FrameWriter) LatestInto(dst []float64) (time.Duration, bool) {
	k := len(w.keys)
	if len(dst) < k {
		panic(fmt.Sprintf("telemetry: LatestInto dst of %d for frame width %d", len(dst), k))
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.raw.n == 0 {
		return 0, false
	}
	s := w.raw.slot(w.raw.n - 1)
	copy(dst, w.rawV[s*k:(s+1)*k])
	return w.rawT[s], true
}

// Append ingests one round: values[i] is the sample for the i-th frame
// key, all observed at time t. Rounds must arrive in non-decreasing
// time order.
func (w *FrameWriter) Append(t time.Duration, values []float64) error {
	return w.AppendPar(t, values, nil)
}

// AppendPar is Append with the K-wide column updates fanned out over the
// pool. Every per-column fold (sum/min/max) touches only that column's
// state, so the sharded execution is bit-identical to the serial one for
// any worker count — including the nil pool, which runs the shards
// inline and IS the serial path. All boundary decisions, closed-bucket
// ring writes, raw-band writes, and retention trimming stay on the
// calling goroutine; only the in-bucket column arithmetic fans out.
func (w *FrameWriter) AppendPar(t time.Duration, values []float64, p *par.Pool) error {
	if len(values) != len(w.keys) {
		return fmt.Errorf("telemetry: frame round has %d values for %d keys", len(values), len(w.keys))
	}
	if t < 0 {
		return fmt.Errorf("telemetry: negative timestamp %v", t)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hasAny && t < w.lastT {
		return fmt.Errorf("telemetry: out-of-order frame round: %v after %v", t, w.lastT)
	}
	w.lastT = t
	w.hasAny = true
	w.pushRaw(t, values)
	var inBucket [4]bool
	anyIn := false
	for i := range w.levels {
		inBucket[i] = w.levels[i].foldBoundary(t, values, w.store.cfg.LevelRows)
		anyIn = anyIn || inBucket[i]
	}
	if anyIn {
		if p == nil {
			// Closure-free serial path: the steady-state ingest stays
			// allocation-free per round.
			w.foldLevels(&inBucket, values, 0, len(values))
		} else {
			w.foldLevelsPar(p, inBucket, values)
		}
	}
	return nil
}

// pushRaw expires the rounds older than the retention window and writes
// round t into the raw ring. Rounds at most RawInterval apart fit the
// ring's first allocation; faster rounds grow it.
func (w *FrameWriter) pushRaw(t time.Duration, values []float64) {
	if ret := w.store.cfg.RawRetention; ret > 0 {
		cutoff := t - ret
		for w.raw.n > 0 && w.rawT[w.raw.slot(0)] < cutoff {
			w.raw.pop()
			w.droppedRounds++
		}
	}
	k := len(w.keys)
	if w.raw.full() {
		rows := w.raw.nextRows(w.store.rawRows)
		w.rawT = regrow(w.rawT, w.raw, 1, rows)
		w.rawV = regrow(w.rawV, w.raw, k, rows)
		w.raw.resize(rows)
	}
	s := w.raw.push()
	w.rawT[s] = t
	copy(w.rawV[s*k:(s+1)*k], values)
}

// foldBoundary makes the level's single per-round boundary decision and,
// on rollover, closes the open bucket into the closed ring (keeping at
// most limit buckets; 0 keeps all) and seeds the new one from the
// round's values. It reports whether the round lands in the
// already-open bucket, i.e. whether the K-wide column updates are still
// pending (foldColumns).
func (l *frameLevel) foldBoundary(t time.Duration, values []float64, limit int) bool {
	if t < l.curEnd {
		l.curCnt++
		return true
	}
	var start time.Duration
	if t < l.curEnd+l.width {
		// Adjacent bucket — the steady-state rollover. No division.
		start = l.curEnd
	} else {
		start = t / l.width * l.width
	}
	if l.curEnd != 0 {
		l.closeBucket(limit)
	}
	l.curEnd = start + l.width
	l.curCnt = 1
	copy(l.curSum, values)
	copy(l.curMin, values)
	copy(l.curMax, values)
	return false
}

// closeBucket copies the open bucket into the closed ring, evicting the
// oldest bucket once the ring holds limit (0: no limit). A limited ring
// is allocated once, at full size, on its first close.
func (l *frameLevel) closeBucket(limit int) {
	k := len(l.curSum)
	if limit > 0 && l.closed.n == limit {
		l.closed.pop()
	}
	if l.closed.full() {
		rows := l.closed.nextRows(limit)
		l.starts = regrow(l.starts, l.closed, 1, rows)
		l.counts = regrow(l.counts, l.closed, 1, rows)
		l.sums = regrow(l.sums, l.closed, k, rows)
		l.mins = regrow(l.mins, l.closed, k, rows)
		l.maxs = regrow(l.maxs, l.closed, k, rows)
		l.closed.resize(rows)
	}
	s := l.closed.push()
	l.starts[s] = l.curEnd - l.width
	l.counts[s] = l.curCnt
	copy(l.sums[s*k:(s+1)*k], l.curSum)
	copy(l.mins[s*k:(s+1)*k], l.curMin)
	copy(l.maxs[s*k:(s+1)*k], l.curMax)
}

// foldLevelsPar fans foldLevels out over the column shards. Kept out of
// AppendPar so the closure's captures don't force the serial path's
// locals onto the heap.
func (w *FrameWriter) foldLevelsPar(p *par.Pool, inBucket [4]bool, values []float64) {
	p.RunRanges(w.colShards, func(_ int, r par.Range) {
		w.foldLevels(&inBucket, values, r.Lo, r.Hi)
	})
}

// foldLevels folds the round into every level whose bucket stayed open,
// over the column range [lo, hi) — the shard body of AppendPar's fan-out
// and, over the full range, the serial fold.
func (w *FrameWriter) foldLevels(inBucket *[4]bool, values []float64, lo, hi int) {
	for i := range w.levels {
		if inBucket[i] {
			w.levels[i].foldColumns(values, lo, hi)
		}
	}
}

// foldColumns folds the round's values into the open bucket over the
// column range [lo, hi) — the shard body of AppendPar's fan-out.
func (l *frameLevel) foldColumns(values []float64, lo, hi int) {
	for k := lo; k < hi; k++ {
		v := values[k]
		l.curSum[k] += v
		if v < l.curMin[k] {
			l.curMin[k] = v
		}
		if v > l.curMax[k] {
			l.curMax[k] = v
		}
	}
}

// query materializes one column's buckets over [from, to) at res.
func (w *FrameWriter) query(col int, from, to time.Duration, res Resolution) ([]Bucket, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	k := len(w.keys)
	if res == ResRaw {
		var out []Bucket
		for i := 0; i < w.raw.n; i++ {
			s := w.raw.slot(i)
			if t := w.rawT[s]; t >= from && t < to {
				v := w.rawV[s*k+col]
				out = append(out, Bucket{Start: t, Count: 1, Sum: v, Min: v, Max: v})
			}
		}
		return out, nil
	}
	li, err := levelIndex(res)
	if err != nil {
		return nil, err
	}
	l := &w.levels[li]
	lo, hi := l.closed.span(func(s int) time.Duration { return l.starts[s] }, l.width, from, to)
	takeCur := l.curEnd != 0 && l.curEnd > from && l.curEnd-l.width < to
	n := hi - lo
	if takeCur {
		n++
	}
	out := make([]Bucket, 0, n)
	for i := lo; i < hi; i++ {
		s := l.closed.slot(i)
		out = append(out, Bucket{
			Start: l.starts[s], Count: l.counts[s],
			Sum: l.sums[s*k+col], Min: l.mins[s*k+col], Max: l.maxs[s*k+col],
		})
	}
	if takeCur {
		out = append(out, Bucket{
			Start: l.curEnd - l.width, Count: l.curCnt,
			Sum: l.curSum[col], Min: l.curMin[col], Max: l.curMax[col],
		})
	}
	return out, nil
}

// stats folds the frame's storage accounting into out.
func (w *FrameWriter) stats(out *Stats) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	k := int64(len(w.keys))
	out.Keys += len(w.keys)
	out.RawPoints += int64(w.raw.n) * k
	out.DroppedRaw += w.droppedRounds * k
	for i := range w.levels {
		l := &w.levels[i]
		n := int64(l.closed.n)
		if l.curEnd != 0 {
			n++
		}
		out.AggBuckets += n * k
	}
}
