package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// frameEquivalentStores ingests the same synthetic rounds three ways —
// through one FrameWriter, as per-point Store.Append calls (one
// one-column frame per key), and into the brute-force oracle — and
// returns all three for comparison.
func frameEquivalentStores(t *testing.T, cfg Config, keys []string, rounds int, step time.Duration) (framed, plain *Store, o *oracle) {
	t.Helper()
	framed = mustStore(t, cfg)
	plain = mustStore(t, cfg)
	o = newOracle(cfg)
	fw, err := framed.Frames(keys)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, len(keys))
	for r := 0; r < rounds; r++ {
		now := time.Duration(r) * step
		for k := range vals {
			vals[k] = rng.Float64()*100 - 20
		}
		if err := fw.Append(now, vals); err != nil {
			t.Fatal(err)
		}
		for k, key := range keys {
			if err := plain.Append(key, now, vals[k]); err != nil {
				t.Fatal(err)
			}
		}
		o.round(now, keys, vals)
	}
	return framed, plain, o
}

func requireSameBuckets(t *testing.T, got, want []Bucket, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d buckets, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bucket %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// boundedCases are ingest shapes whose level rings hold fewer buckets
// than the run closes. At one-minute rounds the minute and quarter rings
// wrap many times; at 15-minute rounds with two rows every level wraps,
// the day level included, and the raw ring is exactly one window wide.
var boundedCases = []struct {
	cfg  Config
	step time.Duration
}{
	{Config{RawInterval: time.Minute, RawRetention: time.Hour, LevelRows: 16}, time.Minute},
	{Config{RawInterval: 15 * time.Minute, RawRetention: 6 * time.Hour, LevelRows: 2}, 15 * time.Minute},
}

// wrapSpans are query ranges for a run of the given horizon: the whole
// run, fixed early windows, and windows near the end that start inside
// a wrapped ring's retained rows and so straddle its wrap point.
func wrapSpans(horizon time.Duration) [][2]time.Duration {
	return [][2]time.Duration{
		{0, 1 << 62},
		{40 * time.Minute, 3 * time.Hour},
		{90 * time.Minute, 91 * time.Minute},
		{horizon - 20*time.Minute, horizon - 7*time.Minute},
		{horizon - 3*time.Hour, horizon - 50*time.Minute},
		{horizon - 50*time.Hour, horizon - 20*time.Hour},
	}
}

// TestFramesMatchPerPointIngest is the core contract: a key of a wide
// frame and the same values appended point by point both match the
// brute-force oracle — at every resolution, over full and partial
// ranges, and in the storage accounting — with unbounded and with
// wrapping rings.
func TestFramesMatchPerPointIngest(t *testing.T) {
	const rounds = 300
	keys := []string{"a/power", "a/util", "b/power", "b/util", "inlet"}
	cases := []struct {
		cfg  Config
		step time.Duration
	}{
		{noRetention(), time.Minute},
		{Config{RawInterval: 15 * time.Second, RawRetention: time.Hour}, time.Minute},
	}
	cases = append(cases, boundedCases...)
	for _, c := range cases {
		framed, plain, o := frameEquivalentStores(t, c.cfg, keys, rounds, c.step)
		spans := wrapSpans(rounds * c.step)
		ctx := fmt.Sprintf("retention=%v rows=%d", c.cfg.RawRetention, c.cfg.LevelRows)
		requireMatchesOracle(t, framed, o, spans, ctx+" framed")
		requireMatchesOracle(t, plain, o, spans, ctx+" per-point")
		gotKeys, wantKeys := framed.Keys(), plain.Keys()
		if len(gotKeys) != len(wantKeys) {
			t.Fatalf("keys %v vs %v", gotKeys, wantKeys)
		}
		for i := range gotKeys {
			if gotKeys[i] != wantKeys[i] {
				t.Fatalf("keys %v vs %v", gotKeys, wantKeys)
			}
		}
	}
}

// TestBoundedLevelsKeepNewestBuckets checks the rings against the
// oracle's unbounded history of the same rounds: each level returns
// exactly the newest LevelRows closed buckets plus the open one, in time
// order across the wrap, and the raw band is untouched by the level
// limit.
func TestBoundedLevelsKeepNewestBuckets(t *testing.T) {
	const rounds = 300
	keys := []string{"x", "y"}
	for _, c := range boundedCases {
		framed, _, o := frameEquivalentStores(t, c.cfg, keys, rounds, c.step)
		all := *o
		all.cfg.LevelRows = 0
		for _, key := range keys {
			for _, res := range allResolutions {
				ctx := fmt.Sprintf("rows=%d %s %v", c.cfg.LevelRows, key, res)
				got, err := framed.Query(key, 0, 1<<62, res)
				if err != nil {
					t.Fatal(ctx, err)
				}
				want := all.buckets(key, res)
				if keep := c.cfg.LevelRows + 1; res != ResRaw && len(want) > keep {
					want = want[len(want)-keep:]
				}
				requireSameBuckets(t, got, want, ctx)
			}
		}
	}
}

// TestFramesDerivedQueries checks the analysis layer runs unchanged on
// framed series.
func TestFramesDerivedQueries(t *testing.T) {
	keys := []string{"x", "y"}
	framed, plain, _ := frameEquivalentStores(t, noRetention(), keys, 3000, time.Minute)
	for _, key := range keys {
		fd, err := framed.DailyAverages(key)
		if err != nil {
			t.Fatal(err)
		}
		pd, err := plain.DailyAverages(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(fd) != len(pd) {
			t.Fatalf("daily averages %d vs %d", len(fd), len(pd))
		}
		for i := range fd {
			if fd[i] != pd[i] {
				t.Fatalf("daily average %d: %v vs %v", i, fd[i], pd[i])
			}
		}
		fh, err := framed.HourlyPattern(key)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := plain.HourlyPattern(key)
		if err != nil {
			t.Fatal(err)
		}
		if fh != ph {
			t.Fatalf("hourly pattern mismatch: %v vs %v", fh, ph)
		}
	}
	fc, err := framed.CorrelateDetrended("x", "y", ResMinute, 61)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := plain.CorrelateDetrended("x", "y", ResMinute, 61)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fc-pc) != 0 {
		t.Fatalf("correlation %v vs %v", fc, pc)
	}
}

func TestFramesValidation(t *testing.T) {
	s := mustStore(t, noRetention())
	if _, err := s.Frames(nil); err == nil {
		t.Error("empty frame should error")
	}
	if _, err := s.Frames([]string{"dup", "dup"}); err == nil {
		t.Error("duplicate frame keys should error")
	}
	if err := s.Append("taken", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Frames([]string{"taken"}); err == nil {
		t.Error("frame over an existing plain series should error")
	}
	fw, err := s.Frames([]string{"f1", "f2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Frames([]string{"f2", "f3"}); err == nil {
		t.Error("frame over an already-framed key should error")
	}
	if err := fw.Append(0, []float64{1}); err == nil {
		t.Error("short round should error")
	}
	if err := fw.Append(-time.Second, []float64{1, 2}); err == nil {
		t.Error("negative timestamp should error")
	}
	if err := fw.Append(time.Minute, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Append(time.Second, []float64{1, 2}); err == nil {
		t.Error("out-of-order round should error")
	}
	if err := s.Append("f1", 0, 1); err == nil {
		t.Error("plain append to a key of a wider frame should error")
	}
}

// TestRawRingGrowsAcrossWrap feeds rounds faster than RawInterval after
// the raw ring has wrapped, so the ring must grow with its oldest row
// mid-buffer; a frame's handle and per-point Store.Append must still
// return exactly the retention window, oldest first.
func TestRawRingGrowsAcrossWrap(t *testing.T) {
	const retention = 10 * time.Minute
	cfg := Config{RawInterval: time.Minute, RawRetention: retention}
	framed, plain := mustStore(t, cfg), mustStore(t, cfg)
	fw, err := framed.Frames([]string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	var times []time.Duration
	for i := 0; i < 30; i++ {
		times = append(times, time.Duration(i)*time.Minute)
	}
	for i := 1; i <= 40; i++ {
		times = append(times, 29*time.Minute+time.Duration(i)*15*time.Second)
	}
	for i, at := range times {
		if err := fw.Append(at, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := plain.Append("k", at, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	last := times[len(times)-1]
	var want []Bucket
	for i, at := range times {
		if at >= last-retention {
			want = append(want, Bucket{Start: at, Count: 1, Sum: float64(i), Min: float64(i), Max: float64(i)})
		}
	}
	for name, s := range map[string]*Store{"framed": framed, "plain": plain} {
		got, err := s.Query("k", 0, 1<<62, ResRaw)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBuckets(t, got, want, name)
		if st := s.Stats(); st.RawPoints != int64(len(want)) || st.DroppedRaw != int64(len(times)-len(want)) {
			t.Errorf("%s: stats %+v, want %d raw and %d dropped", name, st, len(want), len(times)-len(want))
		}
	}
}
