// Package metricbad seeds metricreg violations: names outside the
// vectordb_ namespace, dynamic names, cross-type collisions and the same
// family registered from unrelated functions.
package metricbad

import "lintest.example/internal/obs"

// Register is the first registration site.
func Register(r *obs.Registry) {
	r.Counter("queries_total")     // want metricreg "does not match"
	r.Counter("vectordb_Bad_Name") // want metricreg "does not match"
	name := "vectordb_dynamic_total"
	r.Counter(name) // want metricreg "not a compile-time constant"
	r.Counter("vectordb_dup_total")
	r.Counter("vectordb_split_total")
	// Label variants of one family from one function are legal.
	r.Counter("vectordb_ok_total", "collection", "a")
	r.Counter("vectordb_ok_total", "collection", "b")
	r.Help("vectordb_ok_total", "A family registered coherently.")
}

// RegisterAgain collides with Register's families.
func RegisterAgain(r *obs.Registry) {
	r.GaugeFunc("vectordb_dup_total", nil) // want metricreg "the registry panics on the second type"
	r.Counter("vectordb_split_total")      // want metricreg "also registered in"
}
