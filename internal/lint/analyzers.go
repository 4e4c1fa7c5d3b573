package lint

// Defaults returns a fresh instance of every shipped analyzer. Instances
// carry per-run state (metricreg aggregates registration sites across
// packages; the interprocedural trio share one call graph), so callers
// must not share a set between concurrent runs.
func Defaults() []*Analyzer {
	ip := newInterp()
	return []*Analyzer{
		NewPoolFree(),
		NewBlockPin(),
		NewCtxFlow(),
		NewKernelDispatch(),
		NewLockDiscipline(),
		NewAtomicMix(),
		NewMetricReg(),
		NewLockOrder(ip),
		NewLockDisciplineX(ip),
		NewGoLeak(ip),
	}
}

// Select returns the subset of Defaults named in names; empty names means
// all. Unknown names are reported through the error-shaped second result
// as a list for the driver to print.
func Select(names []string) (analyzers []*Analyzer, unknown []string) {
	all := Defaults()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	for _, n := range names {
		if a, ok := byName[n]; ok {
			analyzers = append(analyzers, a)
		} else {
			unknown = append(unknown, n)
		}
	}
	return analyzers, unknown
}
