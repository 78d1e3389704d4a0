package fault

import (
	"testing"

	"efactory/internal/nvm"
)

// TestTrippedDeviceDropsStores: once the plan trips, the device is frozen
// for every store primitive — WriteLine as much as Write8 and Write — while
// ReadLine keeps serving the frozen coherent view.
func TestTrippedDeviceDropsStores(t *testing.T) {
	mem := nvm.New(4 * nvm.LineSize)
	plan := NewPlan(1)
	dev := WrapDevice(mem, plan)
	before := [8]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	dev.WriteLine(nvm.LineSize, before)
	if got := dev.ReadLine(nvm.LineSize); got != before {
		t.Fatalf("WriteLine before the trip: ReadLine = %v, want %v", got, before)
	}
	dev.Flush(nvm.LineSize, nvm.LineSize) // boundary 1: trips, flush dropped
	if !plan.Tripped() {
		t.Fatal("plan did not trip at boundary 1")
	}
	dirty := mem.DirtyLines()
	dev.WriteLine(nvm.LineSize, [8]uint64{9, 9, 9, 9, 9, 9, 9, 9})
	dev.WriteLine(2*nvm.LineSize, [8]uint64{9})
	dev.Write8(nvm.LineSize, 9)
	dev.Write(3*nvm.LineSize, []byte{9})
	if got := dev.ReadLine(nvm.LineSize); got != before {
		t.Fatalf("store after the trip reached the device: ReadLine = %v, want %v", got, before)
	}
	if got := dev.ReadLine(2 * nvm.LineSize); got != ([8]uint64{}) {
		t.Fatalf("WriteLine after the trip reached the device: %v", got)
	}
	if n := mem.DirtyLines(); n != dirty {
		t.Fatalf("DirtyLines moved from %d to %d after the trip", dirty, n)
	}
}
