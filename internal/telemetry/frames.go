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
// The frame is the store's only series representation: a key first
// seen by Store.Append is a one-column frame. Query, Stats, Keys and the
// derived analyses (DailyAverages, HourlyPattern, Anomalies,
// CorrelateDetrended) read a key the same way whatever its frame's
// width.
type FrameWriter struct {
	store *Store
	keys  []string

	mu sync.RWMutex
	// lastT is the newest round's time; timestamps are non-negative, so
	// its zero value admits any first round.
	lastT time.Duration
	// Raw band: a ring of retained rounds, one timestamp per slot and
	// values row-major (slot s's values are rawV[s*K : (s+1)*K]).
	raw           ring
	rawT          []time.Duration
	rawV          []float64
	droppedRounds int64
	levels        [len(levelWidths)]frameLevel
	// colShards partitions the column space for AppendPar, fixed at
	// construction (a pure function of the frame width); nil for a
	// one-column frame, which always folds inline.
	colShards []par.Range
}

// levelWidths are the bucket widths of the aggregate levels, finest
// first: minute, quarter-hour, hour and day.
var levelWidths = [...]time.Duration{time.Minute, 15 * time.Minute, time.Hour, 24 * time.Hour}

// frameLevel is one aggregation level of the frame pyramid. A bucket
// row is a shared start and count plus a sum, min and max per key, the
// three side by side (key k at [3k], [3k+1], [3k+2]), so a fold touches
// one place per key and closing the open bucket copies one row.
type frameLevel struct {
	curEnd time.Duration // exclusive end of the open bucket; 0 while empty
	curCnt int64
	cur    []float64 // the open bucket's 3K-wide row
	// Closed buckets: a ring with a start and count per slot and the
	// slot's 3K-wide row at vals[s*3K:].
	closed ring
	starts []time.Duration
	counts []int64
	vals   []float64
}

// frameRef resolves a key to its frame's writer and column.
type frameRef struct {
	w   *FrameWriter
	col int
}

// Frames declares keys as one synchronously-sampled frame and returns
// its writer. The keys must be distinct and must not already exist in
// the store; they are created empty. Frames([]string{key}) returns the
// append handle of a single series: the same one-column frame that
// Store.Append creates for a key it has not seen.
func (s *Store) Frames(keys []string) (*FrameWriter, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("telemetry: frame needs at least one key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if seen[k] {
			return nil, fmt.Errorf("telemetry: duplicate frame key %q", k)
		}
		seen[k] = true
		if _, ok := s.frames[k]; ok {
			return nil, fmt.Errorf("telemetry: key %q already exists", k)
		}
	}
	return s.newFrame(keys), nil
}

// newFrame builds the writer for keys and registers its columns; the
// caller holds s.mu and has checked the keys are new. A one-column
// frame is allocated as a single block with its key and open-bucket
// columns, so a plain series costs one allocation before its first
// sample and one more for its raw band.
func (s *Store) newFrame(keys []string) *FrameWriter {
	k := len(keys)
	var w *FrameWriter
	var cur []float64
	if k == 1 {
		b := new(struct {
			w   FrameWriter
			key [1]string
			cur [3 * len(levelWidths)]float64
		})
		b.key[0] = keys[0]
		w, cur = &b.w, b.cur[:]
		w.keys = b.key[:]
	} else {
		w = &FrameWriter{keys: append([]string(nil), keys...), colShards: par.Shards(k)}
		// Every level's row starts on a cache line: AppendPar shards the
		// keys by range on 8-key boundaries (three 64-byte lines of
		// row), so aligned rows keep concurrent shards off each other's
		// lines.
		cur = par.AlignedFloats(len(levelWidths) * 3 * ((k + 7) / 8 * 8))
	}
	w.store = s
	per := len(cur) / len(levelWidths)
	for i := range w.levels {
		w.levels[i].cur = cur[i*per : i*per+3*k : i*per+3*k]
	}
	for col, key := range w.keys {
		s.frames[key] = frameRef{w: w, col: col}
	}
	return w
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
// aggregation, and no store lock.
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
	w.mu.Lock()
	inBucket, err := w.beginRound(t, values)
	for i := range w.levels {
		if inBucket[i] {
			w.levels[i].foldColumns(values, 0, len(values))
		}
	}
	w.mu.Unlock()
	return err
}

// AppendPar is Append with the K-wide column updates fanned out over the
// pool. Every per-column fold (sum/min/max) touches only that column's
// state, so the sharded execution is bit-identical to the serial one for
// any worker count. A nil pool, or a frame too narrow for more than one
// column shard, takes Append's inline path. All boundary decisions,
// closed-bucket ring writes, raw-band writes, and retention trimming stay
// on the calling goroutine; only the in-bucket column arithmetic fans
// out.
func (w *FrameWriter) AppendPar(t time.Duration, values []float64, p *par.Pool) error {
	if p == nil || len(w.colShards) < 2 {
		return w.Append(t, values)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	inBucket, err := w.beginRound(t, values)
	if inBucket != [len(levelWidths)]bool{} {
		w.foldLevelsPar(p, inBucket, values)
	}
	return err
}

// beginRound validates round t, writes it to the raw band and makes each
// level's one boundary decision: a round past the open bucket's end
// rolls the level over (roll); a round inside it bumps the bucket's
// count and is reported in inBucket, its values still to be folded in
// (foldColumns). The caller holds w.mu.
func (w *FrameWriter) beginRound(t time.Duration, values []float64) (inBucket [len(levelWidths)]bool, err error) {
	if len(values) != len(w.keys) {
		return inBucket, fmt.Errorf("telemetry: frame round has %d values for %d keys", len(values), len(w.keys))
	}
	if t < 0 {
		return inBucket, fmt.Errorf("telemetry: negative timestamp %v", t)
	}
	if t < w.lastT {
		return inBucket, fmt.Errorf("telemetry: out-of-order frame round: %v after %v", t, w.lastT)
	}
	w.lastT = t
	w.pushRaw(t, values)
	for i := range w.levels {
		if l := &w.levels[i]; t < l.curEnd {
			l.curCnt++
			inBucket[i] = true
		} else {
			l.roll(t, levelWidths[i], values, w.store.cfg.LevelRows)
		}
	}
	return inBucket, nil
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
		rawT, rawV := newRawBand(rows, k)
		unwrap(rawT, w.rawT, w.raw, 1)
		unwrap(rawV, w.rawV, w.raw, k)
		w.rawT, w.rawV = rawT, rawV
		w.raw.resize(rows)
	}
	s := w.raw.push()
	w.rawT[s] = t
	copy(w.rawV[s*k:(s+1)*k], values)
}

// roll handles a round at t past the open bucket's end: it closes the
// open bucket into the closed ring (keeping at most limit buckets; 0
// keeps all) and opens the one holding t, seeded from the round's
// values.
func (l *frameLevel) roll(t, width time.Duration, values []float64, limit int) {
	var start time.Duration
	if t < l.curEnd+width {
		// Adjacent bucket — the steady-state rollover. No division.
		start = l.curEnd
	} else {
		start = t / width * width
	}
	if l.curEnd != 0 {
		l.closeBucket(width, limit)
	}
	l.curEnd = start + width
	l.curCnt = 1
	cur := l.cur[:3*len(values)]
	for k, v := range values {
		b := cur[3*k : 3*k+3 : 3*k+3]
		b[0], b[1], b[2] = v, v, v
	}
}

// closeBucket copies the open bucket into the closed ring, evicting the
// oldest bucket once the ring holds limit (0: no limit). A limited ring
// is allocated once, at full size, on its first close.
func (l *frameLevel) closeBucket(width time.Duration, limit int) {
	if limit > 0 && l.closed.n == limit {
		l.closed.pop()
	}
	row := len(l.cur)
	if l.closed.full() {
		rows := l.closed.nextRows(limit)
		l.starts = regrow(l.starts, l.closed, 1, rows)
		l.counts = regrow(l.counts, l.closed, 1, rows)
		l.vals = regrow(l.vals, l.closed, row, rows)
		l.closed.resize(rows)
	}
	s := l.closed.push()
	l.starts[s] = l.curEnd - width
	l.counts[s] = l.curCnt
	copy(l.vals[s*row:(s+1)*row], l.cur)
}

// foldLevelsPar folds the round over the column shards into every level
// whose bucket stayed open. Kept out of AppendPar so the closure's
// captures don't force the serial path's locals onto the heap.
func (w *FrameWriter) foldLevelsPar(p *par.Pool, inBucket [len(levelWidths)]bool, values []float64) {
	p.RunRanges(w.colShards, func(_ int, r par.Range) {
		for i := range w.levels {
			if inBucket[i] {
				w.levels[i].foldColumns(values, r.Lo, r.Hi)
			}
		}
	})
}

// foldColumns folds the round's values into the open bucket over the
// column range [lo, hi) — the shard body of AppendPar's fan-out.
func (l *frameLevel) foldColumns(values []float64, lo, hi int) {
	cur := l.cur[3*lo : 3*hi]
	for k, v := range values[lo:hi] {
		b := cur[3*k : 3*k+3 : 3*k+3]
		b[0] += v
		if v < b[1] {
			b[1] = v
		}
		if v > b[2] {
			b[2] = v
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
	l, width := &w.levels[li], levelWidths[li]
	lo, hi := l.closed.span(func(s int) time.Duration { return l.starts[s] }, width, from, to)
	takeCur := l.curEnd != 0 && l.curEnd > from && l.curEnd-width < to
	n := hi - lo
	if takeCur {
		n++
	}
	out := make([]Bucket, 0, n)
	for i := lo; i < hi; i++ {
		s := l.closed.slot(i)
		v := l.vals[s*3*k+3*col:]
		out = append(out, Bucket{Start: l.starts[s], Count: l.counts[s], Sum: v[0], Min: v[1], Max: v[2]})
	}
	if takeCur {
		v := l.cur[3*col:]
		out = append(out, Bucket{Start: l.curEnd - width, Count: l.curCnt, Sum: v[0], Min: v[1], Max: v[2]})
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
