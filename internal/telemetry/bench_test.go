package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkAppendRetentionSteady measures steady-state ingest with the
// retention window full, so every append expires one old point. The
// pre-amortization trim recopied the whole retained band per expired
// point — O(window) per append, quadratic over a run — which this bench
// sweeps by window size: per-op cost must stay flat as the window grows.
func BenchmarkAppendRetentionSteady(b *testing.B) {
	for _, window := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			interval := time.Second
			store, err := NewStore(Config{
				RawInterval:  interval,
				RawRetention: time.Duration(window) * interval,
			})
			if err != nil {
				b.Fatal(err)
			}
			a, err := store.Frames([]string{"srv/cpu"})
			if err != nil {
				b.Fatal(err)
			}
			// Fill the window so the steady state (one drop per append)
			// starts at iteration 0.
			for i := 0; i < window; i++ {
				if err := a.Append(time.Duration(i)*interval, []float64{float64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := time.Duration(window+i) * interval
				if err := a.Append(t, []float64{float64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendByKey measures the map-lookup ingest path (one string
// hash + map probe per point).
func BenchmarkAppendByKey(b *testing.B) {
	store, err := NewStore(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const keys = 100
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("srv%02d/cpu", k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := time.Duration(i) * 15 * time.Second
		if err := store.Append(names[i%keys], ts, float64(i%100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendByHandle measures the same ingest through one-column
// FrameWriter handles resolved up front, which skip the per-point key
// lookup.
func BenchmarkAppendByHandle(b *testing.B) {
	store, err := NewStore(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const keys = 100
	handles := make([]*FrameWriter, keys)
	for k := range handles {
		if handles[k], err = store.Frames([]string{fmt.Sprintf("srv%02d/cpu", k)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := time.Duration(i) * 15 * time.Second
		if err := handles[i%keys].Append(ts, []float64{float64(i % 100)}); err != nil {
			b.Fatal(err)
		}
	}
}
