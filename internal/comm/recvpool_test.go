package comm

import (
	"math"
	"testing"

	"kylix/internal/sparse"
)

// parkedCount reads how many buffers, and bytes of them, a pool holds.
func (rp *RecvPool) parkedCount() (n, bytes int) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.n, rp.bytes
}

// dirtyPool returns a pool seeded with poisoned buffers of assorted
// capacities of both kinds, so a decode that fails to overwrite all it
// hands out shows.
func dirtyPool() *RecvPool {
	rp := new(RecvPool)
	PoisonReleased(true)
	defer PoisonReleased(false)
	for _, c := range []int{0, 1, 2, 3, 5, 8, 16, 40, 100, 1000} {
		Release(&Floats{Vals: make([]float32, c), home: rp})
		Release(&QVals{Data: make([]byte, c), home: rp})
	}
	return rp
}

func floatsWire(n int) []byte {
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = float32(i) + 0.5
	}
	return (&Floats{Vals: vals}).AppendTo(nil)
}

// TestRecvPoolRecycles: a released block's header and buffer serve the
// next decode that fits, a decode is a miss only while nothing does, and
// what comes out of a dirty buffer is exactly what was on the wire.
func TestRecvPoolRecycles(t *testing.T) {
	misses := 0
	rp := &RecvPool{Miss: func() { misses++ }}
	wire := floatsWire(100)
	p, err := rp.Decode(wire)
	if err != nil || misses != 1 {
		t.Fatalf("first decode: err %v, %d misses, want 1", err, misses)
	}
	first := p.(*Floats)
	PoisonReleased(true)
	Release(p)
	PoisonReleased(false)
	if !math.IsNaN(float64(first.Vals[:1][0])) {
		t.Fatal("the poison hook left a released buffer readable")
	}
	p, err = rp.Decode(wire)
	if err != nil || misses != 1 {
		t.Fatalf("second decode: err %v, %d misses, want still 1", err, misses)
	}
	if second := p.(*Floats); second != first || &second.Vals[0] != &first.Vals[0] {
		t.Fatal("the released header and buffer were not reused")
	}
	if got := p.AppendTo(nil); string(got) != string(wire) {
		t.Fatal("a recycled buffer decoded to something other than the wire bytes")
	}

	// The fit rule: a parked buffer serves n <= cap <= 2n + slack.
	Release(p) // 400 bytes parked
	for _, tc := range []struct {
		n   int
		hit bool
	}{{101, false}, {42, true}, {41, false}, {100, true}} {
		before := misses
		q, err := rp.Decode(floatsWire(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		if hit := misses == before; hit != tc.hit {
			t.Fatalf("decode of %d floats with a 100-float buffer parked: hit=%v, want %v", tc.n, hit, tc.hit)
		}
		if tc.hit {
			Release(q)
		}
	}

	// The kinds do not mix: a packed block never lands in a float buffer.
	q := &QVals{Mode: sparse.QuantFP16, N: 100, Data: make([]byte, 200)}
	before := misses
	if _, err := rp.Decode(q.AppendTo(nil)); err != nil || misses != before+1 {
		t.Fatalf("qvals decode with only a float buffer parked: err %v, misses %d -> %d", err, before, misses)
	}
}

// TestReleaseRails: release is for the receiver of a pooled payload and
// harmless everywhere else — a clone is caller-owned, a second release
// finds no home, a payload no pool decoded is left alone.
func TestReleaseRails(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	rp := new(RecvPool)
	for _, wire := range [][]byte{
		floatsWire(8),
		(&QVals{Mode: sparse.QuantINT8, N: 8, Data: make([]byte, sparse.QuantizedSize(sparse.QuantINT8, 8))}).AppendTo(nil),
	} {
		p, err := rp.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		clone := p.Clone()
		Release(clone)
		if n, _ := rp.parkedCount(); n != 0 {
			t.Fatalf("%T: releasing a clone parked a buffer", p)
		}
		if got := clone.AppendTo(nil); string(got) != string(wire) {
			t.Fatalf("%T: releasing a clone poisoned it", p)
		}
		Release(p)
		Release(p)
		if n, _ := rp.parkedCount(); n != 1 {
			t.Fatalf("%T: released twice, %d buffers parked, want 1", p, n)
		}
		if got := clone.AppendTo(nil); string(got) != string(wire) {
			t.Fatalf("%T: a clone shares memory with the released original", p)
		}
		if q, err := rp.Decode(wire); err != nil || q != p {
			t.Fatalf("%T: the parked header did not come back (%v)", p, err)
		}
	}

	// Decoded by no pool, or built by a sender: nothing to go back to.
	built := &Floats{Vals: []float32{1, 2, 3}}
	plain, err := DecodePayload(floatsWire(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Payload{built, plain, &QVals{Mode: sparse.QuantFP16, Data: []byte{}}, &Bytes{Data: []byte("x")}, &ConfigPiece{}, nil} {
		Release(p)
	}
	if built.Vals[0] != 1 || plain.(*Floats).Vals[0] != 0.5 {
		t.Fatal("releasing a payload without a home touched it")
	}
}

// TestRecvPoolIsBounded: the pool parks at most poolSlots buffers and
// max(poolFloor, poolBuffers x largest handed out) bytes, evicting its
// oldest, whatever is released into it.
func TestRecvPoolIsBounded(t *testing.T) {
	var high int64
	rp := &RecvPool{Parked: func(b int64) { high = max(high, b) }}
	hold := func(n int) Payload {
		p, err := rp.Decode(floatsWire(n))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Slots: 100 small buffers of distinct sizes, all out at once.
	var out []Payload
	for i := 0; i < 100; i++ {
		out = append(out, hold(10+i))
	}
	for _, p := range out {
		Release(p)
	}
	if n, _ := rp.parkedCount(); n != poolSlots {
		t.Fatalf("%d buffers parked, want the %d slots", n, poolSlots)
	}
	// The newest survive: the last size released is still there.
	if p := hold(109); p != out[99] {
		t.Fatal("the newest released buffer was evicted before an older one")
	}

	// Bytes: 40 buffers of ~60 KB would be 2.4 MB; the floor is 1 MiB.
	out = out[:0]
	for i := 0; i < 40; i++ {
		out = append(out, hold(15000+100*i))
	}
	for _, p := range out {
		Release(p)
	}
	if _, b := rp.parkedCount(); b > poolFloor || high > poolFloor {
		t.Fatalf("%d bytes parked (high-water %d), bound %d", b, high, poolFloor)
	}
	// An outlier raises the bound to four of itself and is parked whole.
	big := hold(1 << 20)
	Release(big)
	if _, b := rp.parkedCount(); b < 4<<20 || b > 16<<20 || high > 16<<20 {
		t.Fatalf("%d bytes parked after a 4 MiB outlier (high-water %d), bound %d", b, high, 16<<20)
	}
}

var benchSink []byte

// BenchmarkFloatsCodec is the value codec as the TCP transport runs it —
// encode into a recycled frame, decode through the receive pool, release
// — over rotating inputs at warm-tcp-8's piece sizes (7-10 KB), so the
// number is a kernel's and not one cache-resident input's. Gated at 0
// allocs/op by scripts/bench.sh.
func BenchmarkFloatsCodec(b *testing.B) {
	const rotate = 64
	var inputs [rotate]*Floats
	for i := range inputs {
		inputs[i] = &Floats{Vals: make([]float32, 1700+15*i)}
		for j := range inputs[i].Vals {
			inputs[i].Vals[j] = float32(i*j) * 0.25
		}
	}
	rp := new(RecvPool)
	var wire []byte
	run := func(i int) int {
		wire = inputs[i%rotate].AppendTo(wire[:0])
		p, err := rp.Decode(wire)
		if err != nil {
			b.Fatal(err)
		}
		Release(p)
		return len(wire)
	}
	for i := 0; i < rotate; i++ {
		run(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	bytes := 0
	for i := 0; i < b.N; i++ {
		bytes += run(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(bytes)/1024), "ns/KB")
	benchSink = wire
}
