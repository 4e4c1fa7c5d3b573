package plan

import "vectordb/internal/obs"

// planMetrics holds the planner's resolved metric handles. Venues and
// strategies form a closed set, so every (family, decision) handle is
// resolved once here — the hot path never touches the registry, and both
// vectordb_plan_* families are registered in exactly this function.
type planMetrics struct {
	decisions   map[string]*obs.Counter
	mispredicts map[string]*obs.Counter
}

func newPlanMetrics(reg *obs.Registry) *planMetrics {
	m := &planMetrics{
		decisions:   map[string]*obs.Counter{},
		mispredicts: map[string]*obs.Counter{},
	}
	for _, choice := range []string{
		string(VenueFlatCPU), string(VenueIVFCPU),
		string(StrategyPushdown), string(StrategyPrefilter), string(StrategyGraph),
	} {
		m.decisions[choice] = reg.Counter("vectordb_plan_decisions_total", "decision", choice)
		m.mispredicts[choice] = reg.Counter("vectordb_plan_mispredict_total", "decision", choice)
	}
	return m
}

func (m *planMetrics) decision(choice string) {
	if c := m.decisions[choice]; c != nil {
		c.Inc()
	}
}

func (m *planMetrics) mispredict(choice string) {
	if c := m.mispredicts[choice]; c != nil {
		c.Inc()
	}
}
