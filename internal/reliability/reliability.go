// Package reliability implements the paper's Section IV analysis: the
// mean-time-to-data-loss (MTTDL) of EPLog arrays versus conventional RAID,
// computed from absorbing continuous-time Markov chains (Figs. 4-5) and
// from the closed forms of Eqs. (4)-(6). EPLog's SSD failure rate is scaled
// by the write-reduction ratio alpha (Eq. (1)); the log devices add failure
// surface while removing SSD wear, and the analysis quantifies when the
// trade wins.
package reliability

import (
	"errors"
	"fmt"
	"slices"
)

// ErrSingular is returned when the transient system cannot be solved.
var ErrSingular = errors.New("reliability: singular transient system")

// chain is an absorbing CTMC over transient states only: rates[i][j] is
// the transition rate from transient state i to transient state j, and
// absorb[i] is the rate from state i into absorption.
type chain struct {
	rates  [][]float64
	absorb []float64
}

func newChain(nStates int) *chain {
	c := &chain{
		rates:  make([][]float64, nStates),
		absorb: make([]float64, nStates),
	}
	for i := range c.rates {
		c.rates[i] = make([]float64, nStates)
	}
	return c
}

// addTransition adds a transition between transient states.
func (c *chain) addTransition(from, to int, rate float64) {
	c.rates[from][to] += rate
}

// addAbsorption adds a transition from a transient state into absorption.
func (c *chain) addAbsorption(from int, rate float64) {
	c.absorb[from] += rate
}

// absorptionTime returns the expected time to absorption from state 0: the
// t[0] of d[i]·t[i] = h[i] + Σ_j rates[i][j]·t[j], with h = 1 and d[i] the
// total rate out of state i. It eliminates the states from the last down
// to state 1 the way the Grassmann–Taksar–Heyman algorithm does: folding
// state k into the rest only adds products of non-negative rates, and the
// diagonal is never stored — each pivot d[k] is re-summed from the
// off-diagonal rates left in row k. Nothing is subtracted, so every
// intermediate keeps full relative precision. Gaussian elimination on
// (-Q_TT) t = 1 does not: with repair rates ≈ 1e6 times the failure rates
// its pivots are differences of nearly equal numbers, and it returned
// -2.13e17 years for (N 4, M 3, λ 0.016, α 0.12, λh 0.0704, µ 1e4).
func (c *chain) absorptionTime() (float64, error) {
	n := len(c.rates)
	r := make([][]float64, n)
	for i := range r {
		r[i] = slices.Clone(c.rates[i])
	}
	absorb := slices.Clone(c.absorb)
	h := make([]float64, n)
	for i := range h {
		h[i] = 1
	}
	for k := n - 1; k > 0; k-- {
		d := absorb[k]
		for j := 0; j < k; j++ {
			d += r[k][j]
		}
		if d <= 0 {
			return 0, ErrSingular // state k never leaves
		}
		for i := 0; i < k; i++ {
			f := r[i][k] / d
			if f == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				if j != i {
					r[i][j] += f * r[k][j]
				}
			}
			absorb[i] += f * absorb[k]
			h[i] += f * h[k]
		}
	}
	if absorb[0] <= 0 {
		return 0, ErrSingular
	}
	return h[0] / absorb[0], nil
}

// Params configures an MTTDL computation. Rates are per year.
type Params struct {
	// N is the number of SSDs in the main array.
	N int
	// M is the number of tolerable device failures (= parity chunks =
	// EPLog log devices).
	M int
	// LambdaSSD is the SSD failure rate under conventional RAID (λ'_s).
	LambdaSSD float64
	// Alpha scales the SSD failure rate under EPLog (λ_s = α λ'_s),
	// reflecting its write-traffic reduction (Eq. 1).
	Alpha float64
	// LambdaHDD is the log-device failure rate (λ_h).
	LambdaHDD float64
	// MuSSD and MuHDD are the repair rates.
	MuSSD float64
	MuHDD float64
}

func (p Params) validate() error {
	if p.N < 2 || p.M < 1 || p.M >= p.N {
		return fmt.Errorf("reliability: invalid geometry n=%d m=%d", p.N, p.M)
	}
	if p.LambdaSSD <= 0 || p.MuSSD <= 0 {
		return fmt.Errorf("reliability: SSD rates must be positive")
	}
	return nil
}

// ConventionalMTTDL computes the MTTDL of conventional RAID tolerating M
// device failures over N SSDs via its absorbing chain (states = number of
// failed SSDs, one repair at a time).
func ConventionalMTTDL(p Params) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	c := newChain(p.M + 1)
	for f := 0; f <= p.M; f++ {
		failRate := float64(p.N-f) * p.LambdaSSD
		if f == p.M {
			c.addAbsorption(f, failRate)
		} else {
			c.addTransition(f, f+1, failRate)
		}
		if f > 0 {
			c.addTransition(f, f-1, p.MuSSD)
		}
	}
	return c.absorptionTime()
}

// EPLogMTTDL computes the MTTDL of an EPLog array: N SSDs with failure
// rate α·λ'_s plus M log devices with failure rate λ_h, tolerating M total
// device failures (Figs. 4 and 5, generalized to any M). Repair picks one
// failed device uniformly at random (the paper's tie-breaking).
func EPLogMTTDL(p Params) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if p.Alpha <= 0 {
		return 0, fmt.Errorf("reliability: alpha must be positive")
	}
	if p.LambdaHDD <= 0 || p.MuHDD <= 0 {
		return 0, fmt.Errorf("reliability: HDD rates must be positive")
	}
	lamS := p.Alpha * p.LambdaSSD
	// Transient states (i, j): i total failures (<= M), j of them SSDs.
	type state struct{ i, j int }
	var states []state
	index := make(map[state]int)
	for i := 0; i <= p.M; i++ {
		for j := 0; j <= i; j++ {
			index[state{i, j}] = len(states)
			states = append(states, state{i, j})
		}
	}
	c := newChain(len(states))
	for idx, st := range states {
		ssdUp := p.N - st.j
		hddUp := p.M - (st.i - st.j)
		ssdFail := float64(ssdUp) * lamS
		hddFail := float64(hddUp) * p.LambdaHDD
		if st.i == p.M {
			c.addAbsorption(idx, ssdFail+hddFail)
		} else {
			c.addTransition(idx, index[state{st.i + 1, st.j + 1}], ssdFail)
			c.addTransition(idx, index[state{st.i + 1, st.j}], hddFail)
		}
		if st.i > 0 {
			// Repair one failed device chosen uniformly at random.
			if st.j > 0 {
				c.addTransition(idx, index[state{st.i - 1, st.j - 1}],
					float64(st.j)/float64(st.i)*p.MuSSD)
			}
			if st.i-st.j > 0 {
				c.addTransition(idx, index[state{st.i - 1, st.j}],
					float64(st.i-st.j)/float64(st.i)*p.MuHDD)
			}
		}
	}
	return c.absorptionTime()
}

// ConventionalRAID5Closed is Eq. (5): the closed-form MTTDL of (n-1)+1
// RAID-5.
func ConventionalRAID5Closed(n int, lambda, mu float64) float64 {
	nn := float64(n)
	return (mu + (2*nn-1)*lambda) / (nn * (nn - 1) * lambda * lambda)
}

// ConventionalRAID6Closed is Eq. (6): the closed-form MTTDL of (n-2)+2
// RAID-6.
func ConventionalRAID6Closed(n int, lambda, mu float64) float64 {
	nn := float64(n)
	num := mu*mu + 2*(nn-1)*lambda*mu + (3*nn*nn-6*nn+2)*lambda*lambda
	return num / (nn * (nn - 1) * (nn - 2) * lambda * lambda * lambda)
}

// EPLogRAID5Closed is Eq. (4): the closed-form MTTDL of EPLog's RAID-5
// (one log device), derived from the Fig. 4 chain. lamS is the EPLog SSD
// failure rate (α λ'_s).
func EPLogRAID5Closed(n int, lamS, lamH, muS, muH float64) float64 {
	nn := float64(n)
	// States: S0 (healthy), S1 (one HDD down), S2 (one SSD down).
	// t2 = (1 + muS t0) / ((n-1) lamS + lamH + muS)
	// t1 = (1 + muH t0) / (n lamS + muH)
	// t0 = 1/(n lamS + lamH) + (n lamS t2 + lamH t1)/(n lamS + lamH)
	a := nn*lamS + lamH
	b := nn*lamS + muH
	c := (nn-1)*lamS + lamH + muS
	// Solve the 3x3 system symbolically reduced:
	// t0 (a - n lamS muS / c - lamH muH / b) = 1 + n lamS / c + lamH / b
	den := a - nn*lamS*muS/c - lamH*muH/b
	return (1 + nn*lamS/c + lamH/b) / den
}

// Fig6Point is one curve sample of Figure 6.
type Fig6Point struct {
	// Ratio is λ_h / λ'_s.
	Ratio float64
	// EPLog and Conventional are MTTDLs in years.
	EPLog        float64
	Conventional float64
}

// Fig6Series computes a Figure 6 curve: MTTDL versus λ_h/λ'_s for a fixed
// alpha, for the given RAID level (m = 1 or 2 in the paper; any m works).
func Fig6Series(n, m int, lambdaSSD, mu, alpha float64, ratios []float64) ([]Fig6Point, error) {
	base := Params{
		N: n, M: m,
		LambdaSSD: lambdaSSD,
		Alpha:     alpha,
		MuSSD:     mu,
		MuHDD:     mu,
	}
	conv, err := ConventionalMTTDL(base)
	if err != nil {
		return nil, err
	}
	out := make([]Fig6Point, 0, len(ratios))
	for _, r := range ratios {
		p := base
		p.LambdaHDD = r * lambdaSSD
		ep, err := EPLogMTTDL(p)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Point{Ratio: r, EPLog: ep, Conventional: conv})
	}
	return out, nil
}

// Crossover returns the largest ratio λ_h/λ'_s (scanned over the given
// grid) at which EPLog's MTTDL still exceeds conventional RAID's, or 0 if
// it never does.
func Crossover(points []Fig6Point) float64 {
	best := 0.0
	for _, p := range points {
		if p.EPLog > p.Conventional && p.Ratio > best {
			best = p.Ratio
		}
	}
	return best
}
