package fault

import "efactory/internal/nvm"

// Device wraps an nvm.Device so that every Flush and Drain is a crash
// boundary, and so that once the plan trips the device freezes: writes,
// flushes, drains, and zeroes are dropped, leaving exactly the image a
// power failure at the tripped boundary would leave. Reads keep serving
// the frozen coherent view, so code that runs on past the crash point
// (the rest of the op in flight) behaves sanely without mutating the
// image the oracle will check.
//
// Boundaries are counted BEFORE the flush executes, so crash point K on a
// flush models "power lost with the line still in the cache domain"; the
// state after that flush is visited by the next boundary.
type Device struct {
	inner nvm.Device
	plan  *Plan
}

var _ nvm.Device = (*Device)(nil)

// WrapDevice wraps inner under plan. A nil plan yields a transparent
// pass-through (no counting, never freezes).
func WrapDevice(inner nvm.Device, plan *Plan) *Device {
	return &Device{inner: inner, plan: plan}
}

// Inner returns the wrapped device.
func (d *Device) Inner() nvm.Device { return d.inner }

// Size returns the capacity in bytes.
func (d *Device) Size() int { return d.inner.Size() }

// Read copies from the coherent view of the wrapped device.
func (d *Device) Read(off int, dst []byte) { d.inner.Read(off, dst) }

// Read8 performs an 8-byte load from the coherent view.
func (d *Device) Read8(off int) uint64 { return d.inner.Read8(off) }

// Write stores src unless the plan has tripped.
func (d *Device) Write(off int, src []byte) {
	if d.plan.Tripped() {
		return
	}
	d.inner.Write(off, src)
}

// Write8 performs an 8-byte atomic store unless the plan has tripped.
func (d *Device) Write8(off int, v uint64) {
	if d.plan.Tripped() {
		return
	}
	d.inner.Write8(off, v)
}

// Flush counts a boundary, then persists the covered lines unless the
// plan has tripped.
func (d *Device) Flush(off, n int) {
	d.plan.Boundary()
	if d.plan.Tripped() {
		return
	}
	d.inner.Flush(off, n)
}

// Drain counts a boundary, then drains unless the plan has tripped.
func (d *Device) Drain() {
	d.plan.Boundary()
	if d.plan.Tripped() {
		return
	}
	d.inner.Drain()
}

// Zero durably clears a range unless the plan has tripped.
func (d *Device) Zero(off, n int) {
	if d.plan.Tripped() {
		return
	}
	d.inner.Zero(off, n)
}

// ReadPersisted copies from the wrapped device's post-crash view.
func (d *Device) ReadPersisted(off int, dst []byte) { d.inner.ReadPersisted(off, dst) }
