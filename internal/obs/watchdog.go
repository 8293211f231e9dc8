package obs

// The emission-delay SLO watchdog guards the paper's central promise:
// polynomial delay between community emissions (Qin et al., ICDE 2009).
// A healthy enumeration emits at a roughly steady cadence; a stall —
// one inter-emission gap far above the query's own median — is exactly
// the regression the polynomial-delay bound forbids, so the watchdog
// flags it, the breach counter increments, and the trace is always
// captured for the slow-log.

import "sort"

// The emission-delay SLO every deployment runs. A query breaches when
// its max inter-emission gap exceeds sloMultiple × its median gap. Gaps
// below sloMinDelayMS never breach, so scheduler jitter on
// microsecond-scale queries is not flagged, and a query needs
// sloMinEmissions emissions before its median is meaningful.
const (
	sloMultiple     = 32
	sloMinDelayMS   = 5
	sloMinEmissions = 4
)

// checkSLO applies the SLO to one query's emission summary, returning
// whether it breached plus the max and median delays (both 0 when the
// query emitted nothing). The median comes from the stored delays —
// MaxStoredDelays individual gaps — while the max covers every
// emission, so a stall in a huge result set's tail is still caught.
func checkSLO(e *EmissionSummary) (breach bool, maxMS, medianMS float64) {
	if e == nil || len(e.DelaysMS) == 0 {
		return false, 0, 0
	}
	sorted := append([]float64(nil), e.DelaysMS...)
	sort.Float64s(sorted)
	medianMS = sorted[len(sorted)/2]
	maxMS = e.MaxDelayMS
	if len(e.DelaysMS) < sloMinEmissions || e.Count < sloMinEmissions {
		return false, maxMS, medianMS
	}
	if maxMS < sloMinDelayMS {
		return false, maxMS, medianMS
	}
	return maxMS > sloMultiple*medianMS, maxMS, medianMS
}
