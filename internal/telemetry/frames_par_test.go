package telemetry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/par"
)

// TestAppendParMatchesAppendAcrossWorkers pins the columnar-fold
// determinism contract: AppendPar's per-column folds are grouped by the
// width-only shard partition (par.Shards over the key count), so a frame
// ingested over 2 or 4 workers is indistinguishable — bucket for bucket,
// bit for bit — from the same frame appended serially.
func TestAppendParMatchesAppendAcrossWorkers(t *testing.T) {
	// Wide enough for several column shards (MinShardLen = 512).
	const (
		width  = 2000
		rounds = 300
	)
	keys := make([]string, width)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d", i)
	}
	// One fixed synthetic dataset, shared by every ingest variant.
	rng := rand.New(rand.NewSource(11))
	data := make([][]float64, rounds)
	for r := range data {
		row := make([]float64, width)
		for k := range row {
			row[k] = rng.Float64()*100 - 20
		}
		data[r] = row
	}

	type variant struct {
		name    string
		workers int
	}
	variants := []variant{{"inline", 1}, {"w2", 2}, {"w4", 4}}
	cases := []struct {
		cfg  Config
		step time.Duration
	}{{Config{RawInterval: 15 * time.Second, RawRetention: time.Hour, Shards: 4}, time.Minute}}
	cases = append(cases, boundedCases...)
	for _, tc := range cases {
		stores := make([]*Store, len(variants))
		for vi, v := range variants {
			stores[vi] = mustStore(t, tc.cfg)
			fw, err := stores[vi].Frames(keys)
			if err != nil {
				t.Fatal(err)
			}
			pool := par.New(v.workers)
			for r := 0; r < rounds; r++ {
				now := time.Duration(r) * tc.step
				if err := fw.AppendPar(now, data[r], pool); err != nil {
					t.Fatalf("%s: round %d: %v", v.name, r, err)
				}
			}
			pool.Close()
		}

		// Columns straddling every shard seam plus the edges; every
		// resolution; ranges across the rings' wrap points; exact bucket
		// equality (Bucket is comparable) and equal storage accounting.
		cols := []int{0, 1, 511, 512, 513, 1023, 1024, 1500, width - 1}
		for _, c := range cols {
			for _, res := range []Resolution{ResRaw, ResMinute, ResQuarter, ResHour, ResDay} {
				for _, span := range wrapSpans(rounds * tc.step) {
					want, err := stores[0].Query(keys[c], span[0], span[1], res)
					if err != nil {
						t.Fatal(err)
					}
					for vi := 1; vi < len(variants); vi++ {
						got, err := stores[vi].Query(keys[c], span[0], span[1], res)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBuckets(t, got, want,
							fmt.Sprintf("rows=%d %s col %d res %v [%v,%v)", tc.cfg.LevelRows, variants[vi].name, c, res, span[0], span[1]))
					}
				}
			}
		}
		for vi := 1; vi < len(variants); vi++ {
			if got, want := stores[vi].Stats(), stores[0].Stats(); got != want {
				t.Errorf("rows=%d %s: stats %+v, inline %+v", tc.cfg.LevelRows, variants[vi].name, got, want)
			}
		}
	}
}
