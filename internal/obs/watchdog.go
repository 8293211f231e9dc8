package obs

// The emission-delay SLO watchdog guards the paper's central promise:
// polynomial delay between community emissions (Qin et al., ICDE 2009).
// A healthy enumeration emits at a roughly steady cadence; a stall —
// one inter-emission gap far above the query's own median — is exactly
// the regression the polynomial-delay bound forbids, so the watchdog
// flags it, the breach counter increments, and the trace is always
// captured for the slow-log. The time to the first result (projection
// plus engine init) is not a gap between emissions and is never judged.

import "sort"

// The emission-delay SLO every deployment runs. A query breaches when
// its max inter-emission gap exceeds sloMultiple × its median gap. Gaps
// below sloMinDelayMS never breach, so scheduler jitter on
// microsecond-scale queries is not flagged, and a query needs
// sloMinGaps gaps before its median is meaningful.
const (
	sloMultiple   = 32
	sloMinDelayMS = 5
	sloMinGaps    = 4
)

// checkSLO applies the SLO to one query's emission summary, returning
// whether it breached plus the max and median gaps (both 0 when the
// query emitted fewer than two communities). The median comes from the
// stored delays after the first — up to MaxStoredDelays−1 individual
// gaps — while the max covers every gap, so a stall in a huge result
// set's tail is still caught.
func checkSLO(e *EmissionSummary) (breach bool, maxMS, medianMS float64) {
	if e == nil || len(e.DelaysMS) < 2 {
		return false, 0, 0
	}
	gaps := append([]float64(nil), e.DelaysMS[1:]...)
	sort.Float64s(gaps)
	medianMS = gaps[len(gaps)/2]
	maxMS = e.MaxDelayMS
	if len(gaps) < sloMinGaps || maxMS < sloMinDelayMS {
		return false, maxMS, medianMS
	}
	return maxMS > sloMultiple*medianMS, maxMS, medianMS
}
