package main

import (
	"math"
	"math/bits"
	"sort"
)

// tailLevels are the percentiles the benchmark may report as a tail, in
// descending order.
var tailLevels = []float64{99.99, 99.9, 99, 90, 50}

// tailLevel returns the highest percentile that still has at least ten
// of n samples beyond it, so p99 is only reported from 1000 samples up.
// ok is false when n is below 20, where not even the median qualifies.
func tailLevel(n int) (p float64, ok bool) {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the p-th percentile of sorted samples, interpolating
// linearly between the two nearest order statistics.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// dist is a latency distribution kept as raw samples (in ms); the sim
// workloads keep every sample so their percentiles repeat exactly.
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(ms float64) {
	d.v = append(d.v, ms)
	d.sorted = false
}

func (d *dist) n() int { return len(d.v) }

// at returns the p-th percentile, or 0 without samples.
func (d *dist) at(p float64) float64 {
	if len(d.v) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	return percentile(d.v, p)
}

// hist is a log-linear latency histogram in nanoseconds: 2^histSub
// buckets per power of two, so a reported value is within 1/128 of the
// true sample. The wall-clock workload records millions of samples and
// must keep its own memory flat, so it uses this instead of dist.
type hist struct {
	counts [64 << histSub]uint64
	total  uint64
}

const histSub = 7

func histIndex(ns int64) int {
	if ns < 1<<histSub {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	exp := 63 - bits.LeadingZeros64(uint64(ns)) // ns in [2^exp, 2^(exp+1))
	mant := int(uint64(ns)>>(uint(exp)-histSub)) & (1<<histSub - 1)
	return (exp-histSub+1)<<histSub + mant
}

// histValue returns the midpoint of bucket i in nanoseconds.
func histValue(i int) float64 {
	if i < 1<<histSub {
		return float64(i)
	}
	exp := i>>histSub + histSub - 1
	mant := i & (1<<histSub - 1)
	lo := float64(uint64(1)<<uint(exp)) + float64(mant)*float64(uint64(1)<<uint(exp-histSub))
	width := float64(uint64(1) << uint(exp-histSub))
	return lo + width/2
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.total++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// sub removes o's samples from h (o must be an earlier snapshot of h).
func (h *hist) sub(o *hist) {
	for i, c := range o.counts {
		h.counts[i] -= c
	}
	h.total -= o.total
}

func (h *hist) n() int { return int(h.total) }

// atMs returns the p-th percentile in milliseconds, or 0 without samples.
func (h *hist) atMs(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i) / 1e6
		}
	}
	return 0
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return percentile(xs, 50)
}
