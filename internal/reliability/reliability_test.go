package reliability

import (
	"math"
	"testing"
	"testing/quick"
)

// paper parameters: n=10, 1/λ'=4yr, µ=1e4/yr.
const (
	paperN      = 10
	paperLambda = 0.25
	paperMu     = 1e4
)

func relClose(a, b, tol float64) bool {
	if a == 0 && b == 0 {
		return true
	}
	return math.Abs(a-b)/math.Max(math.Abs(a), math.Abs(b)) < tol
}

func TestConventionalMatchesClosedForms(t *testing.T) {
	for _, n := range []int{5, 7, 10, 16} {
		p := Params{N: n, M: 1, LambdaSSD: paperLambda, MuSSD: paperMu}
		chainVal, err := ConventionalMTTDL(p)
		if err != nil {
			t.Fatal(err)
		}
		closed := ConventionalRAID5Closed(n, paperLambda, paperMu)
		if !relClose(chainVal, closed, 1e-6) {
			t.Errorf("RAID-5 n=%d: chain %v != closed %v", n, chainVal, closed)
		}

		p.M = 2
		chainVal, err = ConventionalMTTDL(p)
		if err != nil {
			t.Fatal(err)
		}
		closed = ConventionalRAID6Closed(n, paperLambda, paperMu)
		if !relClose(chainVal, closed, 1e-6) {
			t.Errorf("RAID-6 n=%d: chain %v != closed %v", n, chainVal, closed)
		}
	}
}

func TestEPLogRAID5MatchesClosedForm(t *testing.T) {
	for _, alpha := range []float64{0.3, 0.5, 0.7, 1.0} {
		for _, ratio := range []float64{0.5, 1, 3, 10} {
			p := Params{
				N: paperN, M: 1,
				LambdaSSD: paperLambda, Alpha: alpha,
				LambdaHDD: ratio * paperLambda,
				MuSSD:     paperMu, MuHDD: paperMu,
			}
			chainVal, err := EPLogMTTDL(p)
			if err != nil {
				t.Fatal(err)
			}
			closed := EPLogRAID5Closed(paperN, alpha*paperLambda, p.LambdaHDD, paperMu, paperMu)
			if !relClose(chainVal, closed, 1e-6) {
				t.Errorf("alpha=%v ratio=%v: chain %v != closed %v", alpha, ratio, chainVal, closed)
			}
		}
	}
}

// TestPaperHeadlineNumbers reproduces the quantitative claims of Section
// IV-B: at λh=λ's and α=0.5, EPLog achieves ≈2.8x the conventional MTTDL
// for both RAID-5 and RAID-6; and the crossover ratios are ≈6 (RAID-5) and
// ≈2 (RAID-6).
func TestPaperHeadlineNumbers(t *testing.T) {
	for _, m := range []int{1, 2} {
		p := Params{
			N: paperN, M: m,
			LambdaSSD: paperLambda, Alpha: 0.5,
			LambdaHDD: paperLambda,
			MuSSD:     paperMu, MuHDD: paperMu,
		}
		ep, err := EPLogMTTDL(p)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := ConventionalMTTDL(p)
		if err != nil {
			t.Fatal(err)
		}
		gain := ep / conv
		if gain < 2.3 || gain > 3.3 {
			t.Errorf("m=%d: MTTDL gain at λh=λ's, α=0.5 is %.2fx; paper reports ≈2.8x", m, gain)
		}
	}

	ratios := make([]float64, 0, 100)
	for r := 0.5; r <= 10; r += 0.1 {
		ratios = append(ratios, r)
	}
	r5, err := Fig6Series(paperN, 1, paperLambda, paperMu, 0.5, ratios)
	if err != nil {
		t.Fatal(err)
	}
	if c := Crossover(r5); c < 4.5 || c > 7.5 {
		t.Errorf("RAID-5 crossover at λh/λ's = %.1f; paper reports ≈6", c)
	}
	r6, err := Fig6Series(paperN, 2, paperLambda, paperMu, 0.5, ratios)
	if err != nil {
		t.Fatal(err)
	}
	if c := Crossover(r6); c < 1.5 || c > 3.0 {
		t.Errorf("RAID-6 crossover at λh/λ's = %.1f; paper reports ≈2", c)
	}
}

func TestMTTDLMonotonicity(t *testing.T) {
	// MTTDL must fall as the HDD failure rate rises, and rise as alpha
	// falls (less SSD wear).
	prev := math.Inf(1)
	for _, ratio := range []float64{1, 2, 4, 8} {
		p := Params{N: paperN, M: 2, LambdaSSD: paperLambda, Alpha: 0.5,
			LambdaHDD: ratio * paperLambda, MuSSD: paperMu, MuHDD: paperMu}
		v, err := EPLogMTTDL(p)
		if err != nil {
			t.Fatal(err)
		}
		if v >= prev {
			t.Errorf("MTTDL not decreasing in λh at ratio %v", ratio)
		}
		prev = v
	}
	prevAlpha := 0.0
	for _, alpha := range []float64{0.7, 0.5, 0.3} {
		p := Params{N: paperN, M: 2, LambdaSSD: paperLambda, Alpha: alpha,
			LambdaHDD: paperLambda, MuSSD: paperMu, MuHDD: paperMu}
		v, err := EPLogMTTDL(p)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prevAlpha {
			t.Errorf("MTTDL not increasing as alpha falls (alpha=%v)", alpha)
		}
		prevAlpha = v
	}
}

func TestHigherRedundancyHelps(t *testing.T) {
	p5 := Params{N: paperN, M: 1, LambdaSSD: paperLambda, MuSSD: paperMu}
	p6 := p5
	p6.M = 2
	v5, err := ConventionalMTTDL(p5)
	if err != nil {
		t.Fatal(err)
	}
	v6, err := ConventionalMTTDL(p6)
	if err != nil {
		t.Fatal(err)
	}
	if v6 <= v5 {
		t.Errorf("RAID-6 MTTDL %v <= RAID-5 MTTDL %v", v6, v5)
	}
}

func TestTripleParityChain(t *testing.T) {
	// The generalized chain extends beyond the paper's m<=2.
	p := Params{N: paperN, M: 3, LambdaSSD: paperLambda, Alpha: 0.5,
		LambdaHDD: paperLambda, MuSSD: paperMu, MuHDD: paperMu}
	v3, err := EPLogMTTDL(p)
	if err != nil {
		t.Fatal(err)
	}
	p.M = 2
	v2, err := EPLogMTTDL(p)
	if err != nil {
		t.Fatal(err)
	}
	if v3 <= v2 {
		t.Errorf("m=3 MTTDL %v <= m=2 MTTDL %v", v3, v2)
	}
}

func TestValidation(t *testing.T) {
	if _, err := ConventionalMTTDL(Params{N: 1, M: 1, LambdaSSD: 1, MuSSD: 1}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ConventionalMTTDL(Params{N: 5, M: 0, LambdaSSD: 1, MuSSD: 1}); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := ConventionalMTTDL(Params{N: 5, M: 5, LambdaSSD: 1, MuSSD: 1}); err == nil {
		t.Error("m=n accepted")
	}
	if _, err := ConventionalMTTDL(Params{N: 5, M: 1, LambdaSSD: -1, MuSSD: 1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := EPLogMTTDL(Params{N: 5, M: 1, LambdaSSD: 1, MuSSD: 1, Alpha: 0, LambdaHDD: 1, MuHDD: 1}); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := EPLogMTTDL(Params{N: 5, M: 1, LambdaSSD: 1, MuSSD: 1, Alpha: 0.5, LambdaHDD: 0, MuHDD: 1}); err == nil {
		t.Error("λh=0 accepted")
	}
}

// TestQuickChainSanity: for random valid parameters, MTTDL is positive and
// finite, and at least the inverse of the total failure rate (you cannot
// lose data before the first failure... more precisely, MTTDL exceeds the
// expected time to the first m+1 failures with no repair).
func TestQuickChainSanity(t *testing.T) {
	prop := func(nRaw, mRaw uint8, lamRaw, ratioRaw, alphaRaw uint16) bool {
		n := int(nRaw%14) + 3
		m := int(mRaw%3) + 1
		if m >= n {
			return true
		}
		lambda := 0.01 + float64(lamRaw%1000)/500 // 0.01..2
		ratio := 0.1 + float64(ratioRaw%100)/10   // 0.1..10
		alpha := 0.05 + float64(alphaRaw%95)/100  // 0.05..1
		p := Params{N: n, M: m, LambdaSSD: lambda, Alpha: alpha,
			LambdaHDD: ratio * lambda, MuSSD: paperMu, MuHDD: paperMu}
		ep, err := EPLogMTTDL(p)
		if err != nil {
			return false
		}
		conv, err := ConventionalMTTDL(p)
		if err != nil {
			return false
		}
		if !(ep > 0 && conv > 0) || math.IsInf(ep, 0) || math.IsNaN(ep) {
			return false
		}
		// Lower bound: time to first failure.
		tff := 1 / (float64(n)*alpha*lambda + float64(m)*ratio*lambda)
		return ep >= tff
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStiffChainsStayPositive pins the inputs on which Gaussian elimination
// cancelled catastrophically: the testing/quick draw (0x2b, 0x20, 0x791b,
// 0x6def, 0x6f5b) of TestQuickChainSanity, for which ConventionalMTTDL
// returned -2.13e17, and a sweep of µ/λ up to 1e12 for every m. With no
// repair after the first failure the array is lost no sooner than with it,
// so the no-repair MTTDL Σ_f 1/((n-f)λ) is a floor; the conventional chain is
// also checked against the closed forms, whose terms are all positive.
func TestStiffChainsStayPositive(t *testing.T) {
	cases := []Params{
		{N: 4, M: 3, LambdaSSD: 0.016, Alpha: 0.12, LambdaHDD: 0.0704, MuSSD: 1e4, MuHDD: 1e4},
	}
	for _, m := range []int{1, 2, 3} {
		for _, lambda := range []float64{2, 0.25, 0.01, 1e-4} {
			for _, mu := range []float64{1, 1e2, 1e4, 1e6, 1e8} {
				cases = append(cases, Params{N: m + 1, M: m, LambdaSSD: lambda, Alpha: 0.05, LambdaHDD: 10 * lambda, MuSSD: mu, MuHDD: mu},
					Params{N: paperN, M: m, LambdaSSD: lambda, Alpha: 0.5, LambdaHDD: lambda, MuSSD: mu, MuHDD: mu})
			}
		}
	}
	for _, p := range cases {
		conv, err := ConventionalMTTDL(p)
		if err != nil {
			t.Fatalf("%+v: conventional: %v", p, err)
		}
		ep, err := EPLogMTTDL(p)
		if err != nil {
			t.Fatalf("%+v: EPLog: %v", p, err)
		}
		var convFloor, epFloor float64
		for f := 0; f <= p.M; f++ {
			convFloor += 1 / (float64(p.N-f) * p.LambdaSSD)
			// EPLog's fastest route to loss fails the most failure-prone
			// devices first; total failure rate only falls as devices fail.
			epFloor += 1 / (float64(p.N)*p.Alpha*p.LambdaSSD + float64(p.M)*p.LambdaHDD)
		}
		if !(conv >= convFloor*(1-1e-12)) || math.IsInf(conv, 0) {
			t.Errorf("%+v: conventional MTTDL %g, want finite and >= the no-repair %g", p, conv, convFloor)
		}
		if !(ep >= epFloor*(1-1e-12)) || math.IsInf(ep, 0) {
			t.Errorf("%+v: EPLog MTTDL %g, want finite and >= %g", p, ep, epFloor)
		}
		var closed float64
		switch p.M {
		case 1:
			closed = ConventionalRAID5Closed(p.N, p.LambdaSSD, p.MuSSD)
			if c := EPLogRAID5Closed(p.N, p.Alpha*p.LambdaSSD, p.LambdaHDD, p.MuSSD, p.MuHDD); p.MuSSD/p.LambdaSSD <= 1e6 && !relClose(ep, c, 1e-6) {
				t.Errorf("%+v: EPLog chain %g != closed form %g", p, ep, c)
			}
		case 2:
			closed = ConventionalRAID6Closed(p.N, p.LambdaSSD, p.MuSSD)
		default:
			continue
		}
		if !relClose(conv, closed, 1e-9) {
			t.Errorf("%+v: conventional chain %g != closed form %g", p, conv, closed)
		}
	}
}
