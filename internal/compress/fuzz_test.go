package compress

import (
	"bytes"
	"testing"
)

// decodeSeeds is FuzzDecode's seed corpus: valid streams (from the encoder
// and hand-built vectors) plus near-miss corruptions, so mutation starts at
// the format's edges.
func decodeSeeds() [][]byte {
	return [][]byte{
		{0x00},
		{0x03, 0x08, 'a', 'b', 'c'},
		{0x14, 0x04, 'a', 'b', 0x46, 0x02, 0x00},
		{0x08, 0x0c, 'a', 'b', 'c', 'd', 0x01, 0x04},
		{0x0c, 0x00, 'a', 0x1d, 0x01},
		{0x08, 0x0c, 'x', 'y', 'z', 'w', 0x0f, 0x04, 0x00, 0x00, 0x00},
		{0x80, 0x80, 0x80, 0x80, 0x08},
		Encode(nil, bytes.Repeat([]byte("pebblesdb"), 100)),
		Encode(nil, []byte("short")),
	}
}

// FuzzDecode feeds arbitrary bytes to the decoder: it must never panic or
// over-read, only return data or ErrCorrupt/ErrTooLarge, and it must agree
// with the byte-at-a-time reference decoder. Run with
// `go test -fuzz=FuzzDecode ./internal/compress`.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		dst, err := checkAgainstRef(t, src)
		if err != nil {
			return
		}
		if n, lerr := DecodedLen(src); lerr != nil || n != len(dst) {
			t.Fatalf("successful decode disagrees with header: %d vs %d (%v)", len(dst), n, lerr)
		}
	})
}

// FuzzRoundTrip checks Encode∘Decode is the identity on arbitrary input.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("a"))
	f.Add(bytes.Repeat([]byte("ab"), 100))
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 64))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252, 253, 254, 255, 0, 0})
	f.Fuzz(func(t *testing.T, src []byte) {
		enc := Encode(nil, src)
		if max := MaxEncodedLen(len(src)); len(enc) > max {
			t.Fatalf("encoded %d > MaxEncodedLen %d", len(enc), max)
		}
		got, err := Decode(nil, enc)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
		}
	})
}
