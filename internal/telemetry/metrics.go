package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// values is the name→metric map behind Counters, Gauges and the
// Registry's histograms: a read-locked lookup on the hot path,
// create-on-first-use under the write lock, and iteration in
// registration order. Handles are stable for the lifetime of the map,
// so hot paths resolve a name once and touch the metric thereafter.
// The zero value is ready to use.
type values[V any] struct {
	mu    sync.RWMutex
	order []string
	vals  map[string]*V
	mk    func(name string) *V // constructor; nil means new(V)
}

// handle returns the value registered under name, creating it (zeroed,
// or by mk) on first use.
func (m *values[V]) handle(name string) *V {
	m.mu.RLock()
	v := m.vals[name]
	m.mu.RUnlock()
	if v != nil {
		return v
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v = m.vals[name]; v == nil {
		if m.vals == nil {
			m.vals = map[string]*V{}
		}
		if m.mk != nil {
			v = m.mk(name)
		} else {
			v = new(V)
		}
		m.vals[name] = v
		m.order = append(m.order, name)
	}
	return v
}

// lookup returns name's value, or nil if it was never registered.
func (m *values[V]) lookup(name string) *V {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.vals[name]
}

// each calls fn on every value in registration order. fn runs under
// the read lock and must not register names.
func (m *values[V]) each(fn func(name string, v *V)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, name := range m.order {
		fn(name, m.vals[name])
	}
}

// Counters is a registry of named monotonic event counters, safe for
// concurrent use. Every injected and recovered fault in the system ends
// up as a named counter, so tests and operators can assert "nothing
// happened silently". The zero value is ready to use.
type Counters struct{ m values[atomic.Uint64] }

// Counter returns the counter registered under name, creating it at
// zero on first use.
func (c *Counters) Counter(name string) *atomic.Uint64 { return c.m.handle(name) }

// Add increments name by delta.
func (c *Counters) Add(name string, delta uint64) { c.m.handle(name).Add(delta) }

// Get returns name's current value (zero if never registered).
func (c *Counters) Get(name string) uint64 {
	if v := c.m.lookup(name); v != nil {
		return v.Load()
	}
	return 0
}

// String renders the counters as "name=value" lines in registration
// order, matching the server's status-register text format.
func (c *Counters) String() string {
	var b strings.Builder
	c.m.each(func(name string, v *atomic.Uint64) { fmt.Fprintf(&b, "%s=%d\n", name, v.Load()) })
	return b.String()
}

// Gauges is a registry of named instantaneous levels — replication lag
// in entries, the size of a catch-up backlog, the store's key count.
// Gauges are signed: replication lag is transiently negative when a
// backup applies past a stale heartbeat's frontier, and an unsigned
// gauge would wrap that to ~2^64. Safe for concurrent use; the zero
// value is ready to use.
type Gauges struct{ m values[atomic.Int64] }

// Gauge returns the gauge registered under name, creating it at zero on
// first use.
func (g *Gauges) Gauge(name string) *atomic.Int64 { return g.m.handle(name) }

// Set stores the current level of name.
func (g *Gauges) Set(name string, v int64) { g.m.handle(name).Store(v) }

// Add moves name by delta, which may be negative.
func (g *Gauges) Add(name string, delta int64) { g.m.handle(name).Add(delta) }

// Get returns name's current level (zero if never registered).
func (g *Gauges) Get(name string) int64 {
	if v := g.m.lookup(name); v != nil {
		return v.Load()
	}
	return 0
}

// SetMax raises name to v if v is higher, for high-water marks. A fresh
// gauge starts at zero, so a negative v never raises it.
func (g *Gauges) SetMax(name string, v int64) {
	gv := g.m.handle(name)
	for {
		cur := gv.Load()
		if v <= cur || gv.CompareAndSwap(cur, v) {
			return
		}
	}
}

// String renders the gauges as "name=value" lines in registration
// order, matching the counter/status-register text format.
func (g *Gauges) String() string {
	var b strings.Builder
	g.m.each(func(name string, v *atomic.Int64) { fmt.Fprintf(&b, "%s=%d\n", name, v.Load()) })
	return b.String()
}
