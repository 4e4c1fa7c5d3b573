package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one experiment at the given scale.
type Runner func(sc Scale) (*Table, error)

// Registry maps experiment IDs (as used by `benchmark -exp`) to runners.
var Registry = map[string]Runner{
	"table1":            func(Scale) (*Table, error) { return ExpTable1(), nil },
	"fig8":              func(sc Scale) (*Table, error) { return ExpFig8("sift", sc) },
	"fig8-deep":         func(sc Scale) (*Table, error) { return ExpFig8("deep", sc) },
	"fig9":              func(sc Scale) (*Table, error) { return ExpFig9("sift", sc) },
	"fig9-deep":         func(sc Scale) (*Table, error) { return ExpFig9("deep", sc) },
	"fig10a":            ExpFig10a,
	"fig10b":            ExpFig10b,
	"fig11":             ExpFig11,
	"fig12":             ExpFig12,
	"fig13":             ExpFig13,
	"fig14":             func(sc Scale) (*Table, error) { return ExpFig14(sc, 50) },
	"fig14-k500":        func(sc Scale) (*Table, error) { return ExpFig14(sc, 500) },
	"fig15":             func(sc Scale) (*Table, error) { return ExpFig15(sc, 50) },
	"fig15-k500":        func(sc Scale) (*Table, error) { return ExpFig15(sc, 500) },
	"fig16":             func(sc Scale) (*Table, error) { return ExpFig16(sc, "L2") },
	"fig16-ip":          func(sc Scale) (*Table, error) { return ExpFig16(sc, "IP") },
	"ablation-pcie":     ExpAblationMultiBucketCopy,
	"ablation-rho":      ExpAblationRho,
	"ablation-merge":    ExpAblationMerge,
	"ablation-largek":   ExpAblationLargeK,
	"ablation-multigpu": ExpAblationMultiGPU,
}

// Names lists experiment IDs, sorted.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for n := range Registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run executes a named experiment.
func Run(name string, sc Scale) (*Table, error) {
	r, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (available: %v)", name, Names())
	}
	return r(sc)
}
