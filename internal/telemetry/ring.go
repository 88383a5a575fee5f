package telemetry

import (
	"sort"
	"time"
)

// ring indexes a circular buffer of rows: logical row i (0 is the
// oldest) lives in physical slot (head+i) mod rows. The owner keeps each
// row field in its own slice of rows × width elements, so one ring can
// index a K-wide frame band and a one-element series band alike; every
// band of the store, raw and aggregate, framed and per-point, uses it.
type ring struct {
	head int // physical slot of the oldest row
	n    int // rows held
	rows int // slots allocated; 0 until the band's first write
}

// minRingRows is the first allocation of a band with no size hint.
const minRingRows = 16

// slot maps logical row i to its physical slot.
func (r *ring) slot(i int) int {
	s := r.head + i
	if s >= r.rows {
		s -= r.rows
	}
	return s
}

// pop discards the oldest row.
func (r *ring) pop() {
	r.head++
	if r.head == r.rows {
		r.head = 0
	}
	r.n--
}

// full reports whether a push needs more slots first.
func (r *ring) full() bool { return r.n == r.rows }

// push claims the slot after the newest row. The ring must not be full.
func (r *ring) push() int {
	s := r.slot(r.n)
	r.n++
	return s
}

// nextRows is the slot count a full ring moves to: hint on the first
// write when the band's size is known, doubling after that.
func (r *ring) nextRows(hint int) int {
	if r.rows == 0 && hint > 0 {
		return hint
	}
	return max(2*r.rows, minRingRows)
}

// regrow returns a slice of rows × width elements holding buf's rows
// under r, oldest first, from slot 0 — the layout of r after
// r.resize(rows). Every field slice of the band is moved before the
// ring itself is resized.
func regrow[T any](buf []T, r ring, width, rows int) []T {
	out := make([]T, rows*width)
	first := min(r.n, r.rows-r.head)
	n := copy(out, buf[r.head*width:(r.head+first)*width])
	copy(out[n:], buf[:(r.n-first)*width])
	return out
}

// resize records that the band's slices now hold rows slots, with the
// oldest row at slot 0.
func (r *ring) resize(rows int) {
	r.head = 0
	r.rows = rows
}

// span returns the logical rows [lo, hi) whose buckets of width overlap
// [from, to), given each slot's bucket start. Rows are in time order
// from the oldest, so both ends are binary searches across the wrap.
func (r *ring) span(start func(slot int) time.Duration, width, from, to time.Duration) (lo, hi int) {
	lo = sort.Search(r.n, func(i int) bool { return start(r.slot(i))+width > from })
	hi = sort.Search(r.n, func(i int) bool { return start(r.slot(i)) >= to })
	return lo, hi
}
