package netsim

// Reconciliation accumulates modeled-vs-measured collective times so a
// run can quantify how well the α/β cost model matches the fabric it is
// actually on: the trainer feeds it the run's (modeled, measured) totals
// and reports the ratio — the loop between the paper's analytic Fig. 11
// curves and a live run.
type Reconciliation struct {
	modeledSum  float64
	measuredSum float64
	n           int
}

// Add records one collective: the profile-predicted time and the
// measured wall time, both in seconds. Non-positive pairs are ignored.
func (r *Reconciliation) Add(modeled, measured float64) {
	if r == nil || modeled <= 0 || measured <= 0 {
		return
	}
	r.modeledSum += modeled
	r.measuredSum += measured
	r.n++
}

// Samples returns how many pairs have been recorded.
func (r *Reconciliation) Samples() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Ratio returns measured/modeled over all recorded pairs: >1 means the
// fabric is slower than the profile claims, <1 faster. Returns 1 when
// nothing has been recorded.
func (r *Reconciliation) Ratio() float64 {
	if r == nil || r.n == 0 || r.modeledSum <= 0 {
		return 1
	}
	return r.measuredSum / r.modeledSum
}
