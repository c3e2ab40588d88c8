package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram in nanoseconds: exact below 256,
// then 128 buckets per power of two (under 0.8% relative width), up to
// about 2^31 ns. Recording is one index computation and one increment, so
// callers can record every operation without allocating.
type hist struct {
	n      uint64
	counts [histLen]uint32
}

const (
	subBits  = 7
	subCount = 1 << subBits
	histLen  = 32 * subCount
)

func bucket(v int64) int {
	if v < 2*subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	i := shift*subCount + int(v>>shift)
	if i >= histLen {
		return histLen - 1
	}
	return i
}

// bucketRange returns the lower bound and width of bucket i.
func bucketRange(i int) (lo, width float64) {
	if i < 2*subCount {
		return float64(i), 1
	}
	shift := i/subCount - 1
	m := i - shift*subCount
	return float64(int64(m) << shift), float64(int64(1) << shift)
}

func (h *hist) record(ns int64) {
	h.counts[bucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated linearly inside its
// bucket so that it moves continuously with the counts. It returns 0 for
// an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum = next
	}
	lo, w := bucketRange(histLen - 1)
	return lo + w
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
