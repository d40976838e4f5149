package main

import (
	"math"
	"sort"
	"time"
)

// series is a set of duration samples.
type series []time.Duration

// quantile interpolates linearly between order statistics; q in [0,1].
// An empty series reads 0.
func (s series) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(series(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	frac := pos - float64(lo)
	return c[lo] + time.Duration(frac*float64(c[lo+1]-c[lo]))
}

func (s series) p50() time.Duration { return s.quantile(0.5) }

func (s series) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of plain numbers; 0 when there are none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if n := len(c); n%2 == 0 {
		return (c[n/2-1] + c[n/2]) / 2
	}
	return c[len(c)/2]
}
