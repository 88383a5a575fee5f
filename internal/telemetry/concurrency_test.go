package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentScrapeWhileIngest is the live-exporter shape: one
// goroutine ingests frame rounds, one appends plain series through
// their one-column frame handles, and scrapers hammer every read path
// the serving layer uses (Query at several resolutions, LatestInto,
// Stats, Keys, the derived analyses). Run under -race this proves the
// store's concurrency contract; without -race it is still a torn-read
// smoke test because every observed bucket must be internally
// consistent.
func TestConcurrentScrapeWhileIngest(t *testing.T) {
	s := mustStore(t, Config{RawInterval: 15 * time.Second, RawRetention: time.Hour})
	frameKeys := []string{"f/power", "f/util", "f/inlet", "f/cap"}
	fw, err := s.Frames(frameKeys)
	if err != nil {
		t.Fatal(err)
	}
	plainKeys := make([]string, 8)
	handles := make([]*FrameWriter, len(plainKeys))
	for i := range plainKeys {
		plainKeys[i] = fmt.Sprintf("plain/%d", i)
		if handles[i], err = s.Frames(plainKeys[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 2000
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Frame ingester.
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals := make([]float64, len(frameKeys))
		for r := 0; r < rounds; r++ {
			ts := time.Duration(r) * 15 * time.Second
			for k := range vals {
				vals[k] = float64(r + k)
			}
			if err := fw.Append(ts, vals); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Plain-series ingester.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			ts := time.Duration(r) * 15 * time.Second
			for i, h := range handles {
				if err := h.Append(ts, []float64{float64(r * i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Scrapers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scrape(t, s, fw, frameKeys, plainKeys, &stop)
		}()
	}

	// Let writers finish, then release scrapers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	go func() {
		// Writers are the first two Adds; give them time then stop readers.
		time.Sleep(50 * time.Millisecond)
		stop.Store(true)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent soak wedged")
	}
}

// scrape runs every read path against s until stop is set: Query at
// several resolutions on framed and plain keys, LatestInto on fw (whose
// rounds must read as r, r+1, r+2, ...), Stats, Keys and a derived
// analysis. Every bucket it sees must be internally consistent.
func scrape(t *testing.T, s *Store, fw *FrameWriter, frameKeys, plainKeys []string, stop *atomic.Bool) {
	latest := make([]float64, fw.Width())
	for i := 0; !stop.Load(); i++ {
		key := frameKeys[i%len(frameKeys)]
		if i%2 == 1 {
			key = plainKeys[i%len(plainKeys)]
		}
		res := []Resolution{ResRaw, ResMinute, ResHour}[i%3]
		bs, err := s.Query(key, 0, 1<<62, res)
		if err != nil {
			t.Errorf("query %q: %v", key, err)
			return
		}
		for _, b := range bs {
			if b.Count <= 0 || b.Min > b.Max {
				t.Errorf("torn bucket for %q: %+v", key, b)
				return
			}
		}
		if ts, ok := fw.LatestInto(latest); ok {
			// A round is written atomically: the latest row must be
			// the self-consistent r, r+1, r+2, ... pattern.
			base := latest[0]
			for k, v := range latest {
				if v != base+float64(k) {
					t.Errorf("torn frame row at %v: %v", ts, latest)
					return
				}
			}
		}
		if st := s.Stats(); st.RawPoints < 0 || st.Keys < len(frameKeys)+len(plainKeys) {
			t.Errorf("implausible stats: %+v", st)
			return
		}
		if i%64 == 0 {
			s.Keys()
			// Derived analyses share Query's locking; exercise one.
			if _, err := s.DailyAverages(frameKeys[0]); err != nil {
				t.Error(err)
				return
			}
		}
	}
}

// TestConcurrentIngestion races the creation path: writers call
// Store.Append on keys that other writers are creating at the same
// moment and on keys that already exist, while scrapers read a wide
// frame and the registry. Every key must end up as one one-column frame
// holding every sample appended to it. Run it under -race.
func TestConcurrentIngestion(t *testing.T) {
	s := mustStore(t, DefaultConfig())
	frameKeys := []string{"f/a", "f/b", "f/c"}
	fw, err := s.Frames(frameKeys)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers   = 8
		keys      = 16 // shared by every worker, created by whichever comes first
		perWorker = 400
	)
	existing := []string{"old/0", "old/1"}
	for _, k := range existing {
		if err := s.Append(k, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			scrape(t, s, fw, frameKeys, existing, &stop)
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		vals := make([]float64, len(frameKeys))
		for r := 0; !stop.Load(); r++ {
			for k := range vals {
				vals[k] = float64(r + k)
			}
			if err := fw.Append(time.Duration(r)*time.Second, vals); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				// Only this worker appends its own key, in time order;
				// every sample of a shared or existing key has the same
				// time, so per-key order holds without coordination.
				own := fmt.Sprintf("srv%d/cpu", w)
				if err := s.Append(own, time.Duration(i)*15*time.Second, float64(i)); err != nil {
					t.Error(err)
					return
				}
				shared := fmt.Sprintf("shared/%d", i%keys)
				if err := s.Append(shared, time.Hour, 1); err != nil {
					t.Error(err)
					return
				}
				if err := s.Append(existing[i%len(existing)], time.Hour, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()

	if got, want := len(s.Keys()), len(frameKeys)+len(existing)+workers+keys; got != want {
		t.Fatalf("%d keys, want %d", got, want)
	}
	count := func(key string) int64 {
		bs, err := s.Query(key, 0, 1<<62, ResDay)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, b := range bs {
			n += b.Count
		}
		return n
	}
	for w := 0; w < workers; w++ {
		if n := count(fmt.Sprintf("srv%d/cpu", w)); n != perWorker {
			t.Errorf("srv%d/cpu holds %d samples, want %d", w, n, perWorker)
		}
	}
	for k := 0; k < keys; k++ {
		if n := count(fmt.Sprintf("shared/%d", k)); n != workers*perWorker/keys {
			t.Errorf("shared/%d holds %d samples, want %d", k, n, workers*perWorker/keys)
		}
	}
	for _, k := range existing {
		if n := count(k); n != 1+workers*perWorker/int64(len(existing)) {
			t.Errorf("%s holds %d samples, want %d", k, n, 1+workers*perWorker/len(existing))
		}
	}
}

func TestLatestInto(t *testing.T) {
	s, err := NewStore(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fw, err := s.Frames([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3)
	if _, ok := fw.LatestInto(buf); ok {
		t.Fatal("LatestInto reported a round before any append")
	}
	if err := fw.Append(10*time.Second, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Append(25*time.Second, []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	ts, ok := fw.LatestInto(buf)
	if !ok || ts != 25*time.Second {
		t.Fatalf("LatestInto = %v, %v", ts, ok)
	}
	if buf[0] != 4 || buf[1] != 5 || buf[2] != 6 {
		t.Fatalf("latest row = %v", buf)
	}
	// Undersized destination is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("short dst did not panic")
		}
	}()
	fw.LatestInto(make([]float64, 2))
}
