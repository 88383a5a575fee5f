package telemetry_test

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Example shows the §5.3 pipeline: ingest 15-second samples, query the
// pyramid at a coarse resolution, and watch band retention discard stale
// raw points while aggregates survive.
func Example() {
	store, err := telemetry.NewStore(telemetry.Config{
		RawInterval:  15 * time.Second,
		RawRetention: 30 * time.Minute,
	})
	if err != nil {
		panic(err)
	}
	// Two hours of a counter that sits at 10 and doubles in hour two.
	for i := 0; i < 2*60*4; i++ {
		v := 10.0
		if i >= 60*4 {
			v = 20.0
		}
		if err := store.Append("srv1/cpu", time.Duration(i)*15*time.Second, v); err != nil {
			panic(err)
		}
	}
	hours, err := store.Query("srv1/cpu", 0, 2*time.Hour, telemetry.ResHour)
	if err != nil {
		panic(err)
	}
	for _, b := range hours {
		fmt.Printf("hour starting %v: mean %.0f (%d samples)\n",
			b.Start, b.Mean(), b.Count)
	}
	st := store.Stats()
	fmt.Printf("raw retained: %d of %d appended\n", st.RawPoints, st.RawPoints+st.DroppedRaw)
	// Output:
	// hour starting 0s: mean 10 (240 samples)
	// hour starting 1h0m0s: mean 20 (240 samples)
	// raw retained: 121 of 480 appended
}
