package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// quantile is one reported rank of a sample set.
type quantile struct {
	Value float64
	Rank  string // "p50", "p99", or "max" when too few samples back the percentile
	N     int    // samples it was taken from
}

func (q quantile) String() string { return fmt.Sprintf("%s of %d", q.Rank, q.N) }

// nearestRank returns the index of the q-quantile of n sorted samples.
func nearestRank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond reports how many of n samples lie above the q-quantile's rank.
func beyond(n int, q float64) int { return n - 1 - nearestRank(n, q) }

// median returns the median of xs (the mean of the middle pair for an
// even count). A median is always reported, whatever the count.
func median(xs []float64) quantile {
	if len(xs) == 0 {
		return quantile{Rank: "p50"}
	}
	s := sortedCopy(xs)
	n := len(s)
	v := s[n/2]
	if n%2 == 0 {
		v = (s[n/2-1] + s[n/2]) / 2
	}
	return quantile{Value: v, Rank: "p50", N: n}
}

// tail returns the q-quantile of xs when at least minBeyond samples lie
// above it. With fewer samples the percentile is not backed, so tail
// falls back to the largest sample, which bounds it from above, and says
// so in Rank.
func tail(xs []float64, q float64) quantile {
	if len(xs) == 0 {
		return quantile{Rank: "max"}
	}
	s := sortedCopy(xs)
	if beyond(len(s), q) >= minBeyond {
		return quantile{Value: s[nearestRank(len(s), q)], Rank: fmt.Sprintf("p%g", q*100), N: len(s)}
	}
	return quantile{Value: s[len(s)-1], Rank: "max", N: len(s)}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
