package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// broadcaster fans rendered SSE frames out to subscribers. Each
// subscriber has a buffered channel; a subscriber that cannot keep up
// has events dropped rather than stalling the pacer — the event id
// (snapshot sequence number) makes gaps visible to the client. A frame
// is rendered once (sseFrame) and delivered to every subscriber in
// publish order.
type broadcaster struct {
	mu     sync.Mutex
	subs   map[chan []byte]struct{}
	closed bool
}

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: make(map[chan []byte]struct{})}
}

func (b *broadcaster) subscribe() chan []byte {
	ch := make(chan []byte, 16)
	b.mu.Lock()
	if b.closed {
		close(ch) // late subscriber during shutdown: stream ends at once
	} else {
		b.subs[ch] = struct{}{}
	}
	b.mu.Unlock()
	return ch
}

func (b *broadcaster) unsubscribe(ch chan []byte) {
	b.mu.Lock()
	delete(b.subs, ch)
	b.mu.Unlock()
}

// shutdown delivers one final frame to every subscriber (best-effort,
// never blocking) and closes their channels so streaming handlers
// drain and return. Publish and subscribe become no-ops afterwards.
func (b *broadcaster) shutdown(final []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for ch := range b.subs {
		if final != nil {
			select {
			case ch <- final:
			default: // slow subscriber: it still sees the close
			}
		}
		close(ch)
		delete(b.subs, ch)
	}
}

// publish offers one rendered frame to every subscriber without
// blocking.
func (b *broadcaster) publish(frame []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for ch := range b.subs {
		select {
		case ch <- frame:
		default: // slow subscriber: drop, never block the pacer
		}
	}
}

// sseFrame renders one SSE frame: the event id, its name, and v as a
// single line of JSON data.
func sseFrame(id uint64, event string, v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		// Snapshots are plain data; marshalling cannot fail absent a
		// programming error. Callers drop the event rather than kill
		// the pacer.
		return nil, err
	}
	var frame bytes.Buffer
	fmt.Fprintf(&frame, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
	return frame.Bytes(), nil
}

// handleStream serves /api/v1/stream: an SSE stream of snapshot events
// on the configured virtual-time cadence. The first event is the
// current snapshot so clients render immediately.
func (p *pacer[S]) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	ch := p.sse.subscribe()
	defer p.sse.unsubscribe(ch)

	snap, seq := p.snapshot()
	if frame, err := sseFrame(seq, "snapshot", snap); err == nil {
		_, _ = w.Write(frame)
	}
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case frame, ok := <-ch:
			if !ok {
				return // server shutdown: final frame already delivered
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
