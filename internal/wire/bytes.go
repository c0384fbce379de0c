package wire

import "sync"

// Payload-byte accounting, per method. Bytes-on-wire is the axis the
// gossip dissemination work is judged on — per-DP bytes-per-round must
// track the fanout, not the fleet size — so both ends of a call count
// the gob body bytes they ship and receive, split by method name.
// Counts cover the encoded request/response bodies only (the same
// quantity the emulated stacks charge ServiceTime on), not the frame
// envelope, so they are stable across envelope extensions.

// IOBytes is one method's cumulative payload-byte totals from one
// side's perspective: In is bytes received, Out is bytes sent.
type IOBytes struct {
	In  int64
	Out int64
}

// byteBook is a mutex-guarded per-method byte ledger shared by the
// server and client implementations.
type byteBook struct {
	mu       sync.Mutex
	in, out  int64
	byMethod map[string]IOBytes
}

func (b *byteBook) count(method string, in, out int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.in += int64(in)
	b.out += int64(out)
	if b.byMethod == nil {
		b.byMethod = make(map[string]IOBytes)
	}
	io := b.byMethod[method]
	io.In += int64(in)
	io.Out += int64(out)
	b.byMethod[method] = io
}

func (b *byteBook) totals() (in, out int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.in, b.out
}

func (b *byteBook) snapshot() map[string]IOBytes {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]IOBytes, len(b.byMethod))
	//lint:allow mapiter -- map-to-map copy; order cannot matter
	for m, io := range b.byMethod {
		out[m] = io
	}
	return out
}

// MethodIO returns the server's per-method payload-byte totals: In is
// request bodies received, Out is response bodies sent.
func (s *Server) MethodIO() map[string]IOBytes { return s.bytes.snapshot() }

// MethodIO returns this counter set's per-method payload-byte totals:
// Out is request bodies sent (every attempt, retries included), In is
// response bodies received. Nil-safe.
func (m *ClientMetrics) MethodIO() map[string]IOBytes {
	if m == nil {
		return nil
	}
	return m.bytes.snapshot()
}

// onBytesSent counts one attempt's encoded request body.
func (m *ClientMetrics) onBytesSent(method string, n int) {
	if m != nil {
		m.bytes.count(method, 0, n)
	}
}

// onBytesReceived counts one received response body.
func (m *ClientMetrics) onBytesReceived(method string, n int) {
	if m != nil {
		m.bytes.count(method, n, 0)
	}
}
