// Package energy integrates power draw over virtual time. A Meter carries
// a base (idle) load plus dynamically added loads (busy cores, active
// accelerators, radios) and reports total joules consumed, enabling the
// energy columns of the placement experiments.
package energy

import (
	"fmt"

	"continuum/internal/sim"
)

// Meter integrates watts over virtual seconds into joules.
type Meter struct {
	k          *sim.Kernel
	watts      float64 // current total draw
	joules     float64 // integrated up to lastChange
	lastChange float64
}

// NewMeter returns a meter drawing baseWatts from virtual time 0.
func NewMeter(k *sim.Kernel, baseWatts float64) *Meter {
	if baseWatts < 0 {
		panic(fmt.Sprintf("energy: negative base watts %v", baseWatts))
	}
	return &Meter{k: k, watts: baseWatts}
}

func (m *Meter) integrate() {
	now := m.k.Now()
	m.joules += m.watts * (now - m.lastChange)
	m.lastChange = now
}

// AddLoad increases the current draw by watts.
func (m *Meter) AddLoad(watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("energy: AddLoad(%v) < 0; use RemoveLoad", watts))
	}
	m.integrate()
	m.watts += watts
}

// RemoveLoad decreases the current draw by watts. Removing more than is
// present panics: it indicates unbalanced add/remove pairs.
func (m *Meter) RemoveLoad(watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("energy: RemoveLoad(%v) < 0", watts))
	}
	m.integrate()
	if m.watts-watts < -1e-9 {
		panic(fmt.Sprintf("energy: RemoveLoad(%v) below zero (current %v)", watts, m.watts))
	}
	m.watts -= watts
	if m.watts < 0 {
		m.watts = 0
	}
}

// Joules returns energy consumed up to the current virtual time.
func (m *Meter) Joules() float64 {
	m.integrate()
	return m.joules
}
