// Package obs stubs the real module's metrics registry; metricreg keys
// on the Registry receiver type and these method names.
package obs

// Registry is a get-or-create metric family registry.
type Registry struct{}

// Counter is a metric handle.
type Counter struct{}

// Value reads the counter.
func (c *Counter) Value() int64 { return 0 }

// Counter registers or resolves a counter family.
func (r *Registry) Counter(name string, labels ...string) *Counter { return &Counter{} }

// Histogram registers or resolves a histogram family.
func (r *Registry) Histogram(name string, labels ...string) *Counter { return &Counter{} }

// CounterFunc registers a pull-style counter.
func (r *Registry) CounterFunc(name string, fn func() int64) { _ = fn }

// GaugeFunc registers a pull-style gauge.
func (r *Registry) GaugeFunc(name string, fn func() int64) { _ = fn }

// Help attaches help text to a family.
func (r *Registry) Help(name, help string) { _ = help }
