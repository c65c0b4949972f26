package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// beyond is how many of n samples lie above the pct-th percentile.
func beyond(n int, pct float64) int {
	return n - int(math.Ceil(pct/100*float64(n)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of sorted: a
// mean of the order statistics weighted by the Beta distribution that the
// q-th sample quantile follows. It varies less from sample to sample than
// the single order statistic nearest-rank picks, which matters where few
// samples lie beyond q.
func hdQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	// Weights beyond ten standard errors of the quantile are negligible.
	w := 10 * math.Sqrt(q*(1-q)/float64(n))
	lo := max(0, int(math.Floor((q-w)*float64(n))))
	hi := min(n, int(math.Ceil((q+w)*float64(n))))
	var sum, mass float64
	prev := betaInc(a, b, float64(lo)/float64(n))
	for i := lo + 1; i <= hi; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		sum += (cur - prev) * sorted[i-1]
		mass += cur - prev
		prev = cur
	}
	return sum / mass
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 1e5; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
