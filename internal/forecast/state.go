package forecast

// EstimatorState is the learned sky state — everything Observe has
// accumulated. Capacity and Tau are configuration and stay with the
// caller.
type EstimatorState struct {
	Ratio    float64
	HaveObs  bool
	Variance float64
}

// State captures the estimator's learned state.
func (e *Estimator) State() EstimatorState {
	return EstimatorState{Ratio: e.ratio, HaveObs: e.haveObs, Variance: e.variance}
}

// Restore overwrites the estimator's learned state.
func (e *Estimator) Restore(st EstimatorState) {
	e.discOK = false
	e.ratio = st.Ratio
	e.haveObs = st.HaveObs
	e.variance = st.Variance
}
