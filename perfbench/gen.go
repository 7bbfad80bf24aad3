package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// An operation record packs one precomputed operation into 32 bits:
// kind (3 bits) | arg (7 bits: scan limit or counter delta) | key id (22
// bits). Streams of records are generated from the seed before any
// timing starts; inside the measured window the callers only look
// records up.
const (
	idBits  = 22
	argBits = 7
	maxIDs  = 1 << idBits
)

// Operation kinds of the native (kvnet) workloads.
const (
	kGet = iota
	kPut
	kDel
	kScan
)

// Operation kinds of the memcache (kvgw) workload.
const (
	gGet  = iota // GETKQ
	gSet         // SETQ
	gIncr        // INCRQ
	gGets        // GETKQ whose CAS token the next op uses
	gCas         // SETQ guarded by the predicted CAS token
)

func rec(kind, arg int, id uint64) uint32 {
	return uint32(kind)<<(idBits+argBits) | uint32(arg)<<idBits | uint32(id)
}

func recKind(r uint32) int  { return int(r >> (idBits + argBits)) }
func recArg(r uint32) int   { return int(r>>idBits) & (1<<argBits - 1) }
func recID(r uint32) uint64 { return uint64(r & (maxIDs - 1)) }

// digest fingerprints an op stream so two runs can be shown to use
// identical inputs.
func digest(recs []uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint32(b[:], r)
		h.Write(b[:])
	}
	return h.Sum64()
}

// keyTable holds every key of a workload back to back: key id i is
// keyLen bytes, 'k' padding followed by the big-endian id, so byte order
// equals id order (scans rely on it).
type keyTable struct {
	keyLen int
	buf    []byte
}

func newKeyTable(n, keyLen int) keyTable {
	t := keyTable{keyLen: keyLen, buf: make([]byte, n*keyLen)}
	for id := 0; id < n; id++ {
		k := t.buf[id*keyLen : (id+1)*keyLen]
		for i := 0; i < keyLen-8; i++ {
			k[i] = 'k'
		}
		binary.BigEndian.PutUint64(k[keyLen-8:], uint64(id))
	}
	return t
}

func (t keyTable) key(id uint64) []byte {
	off := int(id) * t.keyLen
	return t.buf[off : off+t.keyLen : off+t.keyLen]
}

func keyID(k []byte) uint64 { return binary.BigEndian.Uint64(k[len(k)-8:]) }

// Values encode the (key id, write sequence) pair they were written
// with, so every read can be checked: id u64 | seq u32 | check u32 |
// fixed filler up to the value length.
const valueHeader = 16

func checkWord(id uint64, seq uint32) uint32 {
	return uint32(id)*2654435761 ^ seq ^ 0xA5A5A5A5
}

func stampValue(dst []byte, id uint64, seq uint32) {
	binary.BigEndian.PutUint64(dst, id)
	binary.BigEndian.PutUint32(dst[8:], seq)
	binary.BigEndian.PutUint32(dst[12:], checkWord(id, seq))
	for i := valueHeader; i < len(dst); i++ {
		dst[i] = byte(i)
	}
}

// parseValue returns the id and sequence a value was stamped with, and
// whether it is well formed at the expected length.
func parseValue(v []byte, valLen int) (uint64, uint32, bool) {
	if len(v) != valLen {
		return 0, 0, false
	}
	id := binary.BigEndian.Uint64(v)
	seq := binary.BigEndian.Uint32(v[8:])
	if binary.BigEndian.Uint32(v[12:]) != checkWord(id, seq) || valLen > valueHeader && v[valLen-1] != byte(valLen-1) {
		return 0, 0, false
	}
	return id, seq, true
}

// zipf draws ranks in [0, n) with P(r) ∝ 1/(r+1)^theta by inverse CDF
// (math/rand's sampler needs theta > 1; YCSB uses 0.99).
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// scramble maps a popularity rank to a key id so hot keys are spread
// over the id (and therefore scan) space: multiplication by a prime
// larger than any key space here is a bijection modulo n.
func scramble(rank, n int) uint64 {
	const prime = 1000003
	return uint64(rank * prime % n)
}

// idSet is a set of key ids with O(1) random pick and removal, used by
// the generator to track live and dead keys.
type idSet struct{ ids []uint64 }

func (s *idSet) add(id uint64) { s.ids = append(s.ids, id) }

func (s *idSet) take(rng *rand.Rand) uint64 {
	i := rng.Intn(len(s.ids))
	id := s.ids[i]
	s.ids[i] = s.ids[len(s.ids)-1]
	s.ids = s.ids[:len(s.ids)-1]
	return id
}

func (s *idSet) pick(rng *rand.Rand) uint64 { return s.ids[rng.Intn(len(s.ids))] }
