// Fixture exercising fault-point name resolution against the real
// internal/fault registry (imported live by the analyzer).
package faultuse

import "kvdirect/internal/telemetry"

func record(c *telemetry.Counters, g *telemetry.Gauges, dynamic string) {
	c.Add("fault.host_bitflip", 1)            // registered point: fine
	_ = c.Get("fault.net_reset")              // registered point: fine
	c.Add("fault.host_bitflp", 1)             // want "not a registered fault point.*did you mean \"fault.host_bitflip\""
	_ = c.Get("fault.nonexistent_chaos_mode") // want "not a registered fault point"
	c.Counter("fault.pcie_stal").Add(1)       // want "did you mean \"fault.pcie_stall\""
	c.Add("ops.get", 1)                       // different namespace: not ours to police
	c.Add(dynamic, 1)                         // dynamic name: cannot resolve statically
	c.Add("fault."+dynamic, 1)                // non-constant: likewise skipped
	c.Add("fault.made_up_name", 1)            //lint:allow faultpoint -- fixture: suppression path
	g.Set("fault.retries", 1)                 // gauge: a recovery level, not an injection point
	_ = g.Get("fault.stalls")                 // likewise
}
