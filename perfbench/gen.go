package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"

	"pebblesdb/internal/harness"
)

// Every input the store sees is generated here from the run's seed: the
// same seed gives the same keys, values and operation sequences.

const (
	keySize   = 16
	valueSize = 256
	// valueHeader is the checked prefix of every value: key index, version
	// and a CRC of the body.
	valueHeader = 20
	entryBytes  = keySize + valueSize
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// keySalt scrambles key indices into keys. It is fixed, not drawn from
// the seed: every seed loads the same key set, in its own order and with
// its own values and operation sequence, so the store's structure (FLSM
// guards are chosen by key hash) does not swing between seeds.
const keySalt = 0x9e3779b97f4a7c15

// gen derives keys and values from one seed.
type gen struct {
	seed int64
	salt uint64
}

func newGen(seed int64) *gen {
	return &gen{seed: seed, salt: keySalt}
}

// values returns a body source for one goroutine's stream of values.
func (g *gen) values(stream int64) *harness.ValueSource {
	return harness.NewValueSource(valueSize-valueHeader, harness.CompressibleFraction, g.seed*7919+stream)
}

// rng returns a generator for one named stream of the run, so adding a
// stream never shifts another's inputs.
func (g *gen) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(g.seed*1_000_003 + stream))
}

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// key writes the 16-byte key of index i into dst: a scrambled prefix, so
// key order is unrelated to index order, then the index itself.
func (g *gen) key(dst []byte, i uint64) []byte {
	dst = dst[:keySize]
	binary.BigEndian.PutUint64(dst[0:8], mix64(i+g.salt))
	binary.BigEndian.PutUint64(dst[8:16], i)
	return dst
}

// keyIndex recovers the index from a key written by key.
func keyIndex(k []byte) (uint64, bool) {
	if len(k) != keySize {
		return 0, false
	}
	return binary.BigEndian.Uint64(k[8:16]), true
}

// value writes the 256-byte value of version ver of key i into dst: the
// key index, the version, a CRC of the body, then about 50% compressible
// body bytes.
func value(dst []byte, vs *harness.ValueSource, i, ver uint64) []byte {
	dst = dst[:valueSize]
	body := dst[valueHeader:]
	copy(body, vs.Next())
	binary.BigEndian.PutUint64(dst[0:8], i)
	binary.BigEndian.PutUint64(dst[8:16], ver)
	binary.BigEndian.PutUint32(dst[16:20], crc32.Checksum(body, crcTable))
	return dst
}

// checkValue decodes the version from v and verifies that v belongs to
// key index i and is intact.
func checkValue(i uint64, v []byte) (ver uint64, err error) {
	if len(v) != valueSize {
		return 0, fmt.Errorf("key %d: value length %d", i, len(v))
	}
	if got := binary.BigEndian.Uint64(v[0:8]); got != i {
		return 0, fmt.Errorf("key %d: value belongs to key %d", i, got)
	}
	if crc32.Checksum(v[valueHeader:], crcTable) != binary.BigEndian.Uint32(v[16:20]) {
		return 0, fmt.Errorf("key %d: value body corrupt", i)
	}
	return binary.BigEndian.Uint64(v[8:16]), nil
}

// present reports whether key index i is part of a loaded data set; about
// one index in ten is left out so reads also miss.
func (g *gen) present(i uint64) bool {
	return mix64(i^g.salt)%10 != 0
}

// sortedKeys returns the present indices of [0, n) in key order, the
// model that range-query results are checked against.
func (g *gen) sortedKeys(n int) []uint64 {
	idx := make([]uint64, 0, n)
	for i := uint64(0); i < uint64(n); i++ {
		if g.present(i) {
			idx = append(idx, i)
		}
	}
	pre := func(i uint64) uint64 { return mix64(i + g.salt) }
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pre(idx[a]), pre(idx[b])
		if pa != pb {
			return pa < pb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// seekPos returns the position in sorted (from sortedKeys) of the first
// key >= the key of index i.
func (g *gen) seekPos(sorted []uint64, i uint64) int {
	p := mix64(i + g.salt)
	return sort.Search(len(sorted), func(j int) bool {
		q := mix64(sorted[j] + g.salt)
		return q > p || (q == p && sorted[j] >= i)
	})
}

// zipf draws ranks in [0, n) with skew theta (YCSB's generator, which
// unlike math/rand.Zipf accepts theta < 1).
type zipf struct {
	rng                 *rand.Rand
	n                   float64
	theta, alpha, zetan float64
	eta, halfPowTheta   float64
}

func newZipf(rng *rand.Rand, n int, theta float64) *zipf {
	z := &zipf{rng: rng, n: float64(n), theta: theta}
	var zeta2 float64
	for i := 1; i <= n; i++ {
		t := 1 / math.Pow(float64(i), theta)
		z.zetan += t
		if i <= 2 {
			zeta2 += t
		}
	}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta2/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.n) {
		r = uint64(z.n) - 1
	}
	return r
}
