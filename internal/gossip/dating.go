package gossip

// PhaseBoundaries analyzes an I_t history against the three-phase structure
// of Theorem 4's proof: phase 1 ends when I_t reaches max(m/n, log n);
// phase 2 ends when I_t reaches m/2; phase 3 ends at completion. It returns
// the 1-based round at which each phase ended (0 if never reached).
func PhaseBoundaries(itHistory []int, m, n int) (endPhase1, endPhase2, endPhase3 int) {
	if n <= 0 {
		return 0, 0, 0
	}
	log2n := 0
	for v := 1; v < n; v <<= 1 {
		log2n++
	}
	threshold1 := m / n
	if log2n > threshold1 {
		threshold1 = log2n
	}
	if threshold1 < 1 {
		threshold1 = 1
	}
	threshold2 := m / 2
	for i, it := range itHistory {
		round := i + 1
		if endPhase1 == 0 && it >= threshold1 {
			endPhase1 = round
		}
		if endPhase2 == 0 && it >= threshold2 {
			endPhase2 = round
		}
	}
	if len(itHistory) > 0 {
		endPhase3 = len(itHistory)
	}
	return endPhase1, endPhase2, endPhase3
}
