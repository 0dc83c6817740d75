// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// All experiments in this repo must be exactly reproducible from a seed, on
// any platform, forever. math/rand's generator is stable too, but building on
// our own splitmix64/xoshiro256** keeps the generator explicitly under our
// control, documents the algorithm, and lets us derive independent streams
// for parallel generation.
package xrand

import "math"

// SplitMix64 is the seeding/stream-splitting generator recommended by the
// xoshiro authors. It is also a perfectly fine standalone 64-bit generator.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next value in the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator: fast, 256-bit state, passes BigCrush.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, as recommended by
// the xoshiro reference implementation.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	var r Rand
	for i := range r.s {
		r.s[i] = sm.Uint64()
	}
	// An all-zero state would be absorbing; splitmix output makes this
	// astronomically unlikely, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split returns a new generator whose stream is independent of r's with
// overwhelming probability. It advances r.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int32n returns a uniform value in [0, n) as int32. It panics if n <= 0.
func (r *Rand) Int32n(n int32) int32 {
	if n <= 0 {
		panic("xrand: Int32n with non-positive n")
	}
	return int32(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Classic modulo rejection, branch-poor variant; threshold is the
	// smallest multiple of n that fits, so remainders are unbiased.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 (mean 0, stddev 1)
// using the Marsaglia polar method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements via swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
