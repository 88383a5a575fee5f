package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// oracle is the brute-force reference for a store's contents: every
// sample of every key kept verbatim, with buckets recomputed from
// scratch on each query.
type oracle struct {
	cfg     Config
	times   []time.Duration
	samples map[string][]float64 // per key, one value per entry of times
}

func newOracle(cfg Config) *oracle {
	return &oracle{cfg: cfg, samples: make(map[string][]float64)}
}

// round records one round: values[i] is keys[i]'s sample at t. Every
// round carries every key.
func (o *oracle) round(t time.Duration, keys []string, values []float64) {
	o.times = append(o.times, t)
	for i, k := range keys {
		o.samples[k] = append(o.samples[k], values[i])
	}
}

// buckets returns every bucket the store should hold for key at res,
// oldest first, before range filtering. Raw keeps the samples inside
// the retention window [last-RawRetention, last]; an aggregate level
// groups samples by t/width in arrival order and keeps the newest
// LevelRows closed buckets plus the open (newest) one.
func (o *oracle) buckets(key string, res Resolution) []Bucket {
	vs := o.samples[key]
	var out []Bucket
	if res == ResRaw {
		last := o.times[len(o.times)-1]
		for i, t := range o.times {
			if o.cfg.RawRetention == 0 || t >= last-o.cfg.RawRetention {
				out = append(out, Bucket{Start: t, Count: 1, Sum: vs[i], Min: vs[i], Max: vs[i]})
			}
		}
		return out
	}
	width, _ := res.Interval(o.cfg.RawInterval)
	for i, t := range o.times {
		v, start := vs[i], t/width*width
		if n := len(out); n > 0 && out[n-1].Start == start {
			b := &out[n-1]
			b.Count++
			b.Sum += v
			if v < b.Min {
				b.Min = v
			}
			if v > b.Max {
				b.Max = v
			}
			continue
		}
		out = append(out, Bucket{Start: start, Count: 1, Sum: v, Min: v, Max: v})
	}
	if keep := o.cfg.LevelRows + 1; o.cfg.LevelRows > 0 && len(out) > keep {
		out = out[len(out)-keep:]
	}
	return out
}

// query is what Store.Query(key, from, to, res) should return.
func (o *oracle) query(key string, from, to time.Duration, res Resolution) []Bucket {
	width := time.Duration(1)
	if res != ResRaw {
		width, _ = res.Interval(o.cfg.RawInterval)
	}
	var out []Bucket
	for _, b := range o.buckets(key, res) {
		if b.Start+width > from && b.Start < to {
			out = append(out, b)
		}
	}
	return out
}

// stats is what Store.Stats should report.
func (o *oracle) stats() Stats {
	var st Stats
	for key := range o.samples {
		st.Keys++
		raw := int64(len(o.buckets(key, ResRaw)))
		st.RawPoints += raw
		st.DroppedRaw += int64(len(o.times)) - raw
		for _, res := range aggregateResolutions {
			st.AggBuckets += int64(len(o.buckets(key, res)))
		}
	}
	return st
}

var (
	aggregateResolutions = []Resolution{ResMinute, ResQuarter, ResHour, ResDay}
	allResolutions       = append([]Resolution{ResRaw}, aggregateResolutions...)
)

// requireMatchesOracle compares every key of s against o at every
// resolution over each span, and the storage accounting.
func requireMatchesOracle(t *testing.T, s *Store, o *oracle, spans [][2]time.Duration, ctx string) {
	t.Helper()
	for key := range o.samples {
		for _, res := range allResolutions {
			for _, span := range spans {
				c := fmt.Sprintf("%s %s %v [%v,%v)", ctx, key, res, span[0], span[1])
				got, err := s.Query(key, span[0], span[1], res)
				if err != nil {
					t.Fatal(c, err)
				}
				requireSameBuckets(t, got, o.query(key, span[0], span[1], res), c)
			}
		}
	}
	if got, want := s.Stats(), o.stats(); got != want {
		t.Fatalf("%s: stats %+v, oracle %+v", ctx, got, want)
	}
}

// FuzzFrameMatchesOracle ingests random rounds — 1 to 3 columns,
// non-decreasing timestamps with gaps from seconds to days, arbitrary
// finite values, random raw cadence, retention and level rows — through
// one frame and checks every query and the storage accounting against
// the brute-force oracle.
func FuzzFrameMatchesOracle(f *testing.F) {
	// Seeds: one column at a fixed 63 s step with a retention of exactly
	// ten steps and two-row levels, so rings wrap and the retention
	// cutoff lands on a sample; two columns with repeated times, hour
	// jumps and three-row levels; three columns over day jumps with
	// unbounded levels and raw band.
	seed := func(steps []byte, cols int) []byte {
		var data []byte
		for i := 0; i < 240; i++ {
			data = append(data, steps[i%len(steps)])
			for c := 0; c < cols; c++ {
				data = append(data, byte(i*(c+3)))
			}
		}
		return data
	}
	f.Add(seed([]byte{9}, 1), uint8(0), uint8(2), uint16(630), uint8(14))
	f.Add(seed([]byte{0, 1, 60, 251, 3}, 2), uint8(1), uint8(3), uint16(3600), uint8(0))
	f.Add(seed([]byte{200, 253, 7, 0, 130}, 3), uint8(2), uint8(0), uint16(0), uint8(59))
	f.Fuzz(func(t *testing.T, data []byte, colSel, rowSel uint8, retSel uint16, rawSel uint8) {
		cols := 1 + int(colSel%3)
		cfg := Config{
			RawInterval:  time.Duration(1+rawSel%60) * time.Second,
			RawRetention: time.Duration(retSel) * time.Second,
			LevelRows:    int(rowSel % 8),
		}
		s, err := NewStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		keys := []string{"c0", "c1", "c2"}[:cols]
		fw, err := s.Frames(keys)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(cfg)
		var now time.Duration
		vals := make([]float64, cols)
		for len(data) > cols {
			// The step byte spaces rounds 0 to 249 × 7 s apart (often
			// inside one bucket, often across several); the top values
			// jump whole hours or days.
			switch step := data[0]; {
			case step >= 253:
				now += time.Duration(step-252) * 24 * time.Hour
			case step >= 250:
				now += time.Duration(step-249) * time.Hour
			default:
				now += time.Duration(step) * 7 * time.Second
			}
			for i := range vals {
				vals[i] = float64(int8(data[1+i])) / 4
			}
			data = data[1+cols:]
			if err := fw.Append(now, vals); err != nil {
				t.Fatal(err)
			}
			o.round(now, keys, vals)
		}
		if len(o.times) == 0 {
			return
		}
		spans := [][2]time.Duration{
			{0, 1 << 62},
			{now / 3, now - now/3},
			{now - 20*time.Minute, now},
			{now, now + time.Nanosecond},
		}
		requireMatchesOracle(t, s, o, spans, fmt.Sprintf("cfg=%+v", cfg))
	})
}
