package main

import (
	"math"
	"sort"
)

// sample is a set of latency observations in milliseconds.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for an empty sample.
func (s sample) median() float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer would rest on a handful of outliers.
const tailBeyond = 10

// tail returns the highest percentile of s that still has at least
// tailBeyond samples above it, p = (n−tailBeyond)/n — with n samples, p99
// qualifies from n = 1000 on — together with that percentile in percent.
// The value is the Harrell–Davis estimate of that quantile, a weighted mean
// of the order statistics around rank n−tailBeyond, which moves less from
// run to run than the single order statistic at that rank. ok is false
// when the sample has tailBeyond or fewer values.
func (s sample) tail() (value, pct float64, ok bool) {
	n := len(s)
	if n <= tailBeyond {
		return 0, 0, false
	}
	p := float64(n-tailBeyond) / float64(n)
	return harrellDavis(s.sorted(), p), 100 * p, true
}

// quantile returns the Harrell–Davis estimate of the p-quantile of s, or
// 0 for an empty sample.
func (s sample) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return harrellDavis(s.sorted(), p)
}

// harrellDavis estimates the p-quantile of the ascending values v as
// Σ w_i·v_i, with w_i the mass Beta((n+1)p, (n+1)(1−p)) puts on
// ((i−1)/n, i/n].
func harrellDavis(v []float64, p float64) float64 {
	n := float64(len(v))
	a, b := p*(n+1), (1-p)*(n+1)
	var est, prev float64
	for i, x := range v {
		cdf := betaInc(a, b, float64(i+1)/n)
		est += (cdf - prev) * x
		prev = cdf
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// tailOrMax is tail, falling back to the maximum for samples too small to
// have a qualifying percentile (reported with pct 100).
func (s sample) tailOrMax() (value, pct float64) {
	if v, p, ok := s.tail(); ok {
		return v, p
	}
	m := math.Inf(-1)
	for _, x := range s {
		m = max(m, x)
	}
	if len(s) == 0 {
		m = 0
	}
	return m, 100
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
