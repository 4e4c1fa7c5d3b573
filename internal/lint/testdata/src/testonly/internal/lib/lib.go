// Package lib holds the testonly analyzer's golden cases: exported code
// that the app, the bench module or only the tests refer to.
package lib

// Used is called from the app: live.
func Used() int { return 1 }

// Plain is called only from lib_test.go.
func Plain() int { return 2 } // want testonly "func lib.Plain has no reference outside _test.go files"

// Allowed is called only from tests, and its pragma says why.
//
//lint:allow testonly fixture: a hook other packages' tests need
func Allowed() int { return 3 }

// StaleAllow is called from the app, so its pragma suppresses nothing.
func StaleAllow() int { return 4 } //lint:allow testonly fixture: waives nothing // want pragma "suppressed no finding"

// Benched is called only from the bench module, which replaces this one
// with its directory.
func Benched() int { return 5 }

// Meter is named only by the bench module, and so is its method.
type Meter struct{ n int }

// Tick is called only from the bench module: uses match by package path,
// receiver and name across the two modules' copies of this package.
func (m *Meter) Tick() int { m.n++; return m.n }

// Twin is named by the app, but its Used method only by tests: a use
// matches a declaration by package path, receiver and name, not by name.
type Twin struct{}

// Used shares its name with the live func Used.
func (Twin) Used() int { return 7 } // want testonly "method lib.Twin.Used has no reference outside _test.go files"

// probe is reached only through interfaces.
type probe struct{}

// NewProbe returns a probe behind an empty interface.
func NewProbe() any { return probe{} }

// Probe is reached only through Reach's inline interface assertion.
func (probe) Probe() int { return 6 }

// String is reached only through fmt's Stringer.
func (probe) String() string { return "probe" }

// Reach calls Probe through an inline assertion.
func Reach(x any) int {
	if p, ok := x.(interface{ Probe() int }); ok {
		return p.Probe()
	}
	return 0
}
