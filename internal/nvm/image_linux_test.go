package nvm

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// procStatus returns the named field of /proc/self/status in bytes, for
// a field the kernel counts in kB (VmRSS, VmSize).
func procStatus(t *testing.T, field string) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(v), " kB"))
			if err != nil {
				t.Fatalf("%s: %v", field, err)
			}
			return kb << 10
		}
	}
	t.Fatalf("no %s in /proc/self/status", field)
	return 0
}

// TestMappedImageCostsWhatIsWritten: a 1 GiB Memory is resident only where
// it is stored to. Making it costs its dirty bitmap (2 MiB of Go heap),
// and one line's Write and Flush fault in one page of each image: a huge
// page where the kernel grants one.
func TestMappedImageCostsWhatIsWritten(t *testing.T) {
	runtime.GC()
	before := procStatus(t, "VmRSS")
	m := New(1 << 30)
	made := procStatus(t, "VmRSS")
	if grew := made - before; grew >= 8<<20 {
		t.Fatalf("New(1 GiB) grew VmRSS by %d KiB, want under 8 MiB", grew>>10)
	}
	off := 512 << 20
	m.Write(off, bytes.Repeat([]byte{0xA5}, LineSize))
	m.Flush(off, LineSize)
	wrote := procStatus(t, "VmRSS")
	if grew := wrote - made; grew > 2*2*hugePage {
		t.Fatalf("one line's Write and Flush grew VmRSS by %d KiB, want at most two huge pages per image", grew>>10)
	}
	got := make([]byte, LineSize)
	m.ReadPersisted(off, got)
	if !bytes.Equal(got, bytes.Repeat([]byte{0xA5}, LineSize)) {
		t.Fatalf("persisted line = %x", got)
	}
	t.Logf("VmRSS: +%d KiB for New(1 GiB), +%d KiB for one line written and flushed", (made-before)>>10, (wrote-made)>>10)
}

// TestDroppedDevicesReturnTheirImages makes, writes, flushes and drops 64
// devices of 256 MiB. Each one's map must go back to the kernel once it is
// collected: VmRSS ends within 64 MiB of its start (a kept device holds a
// huge page per image where the kernel grants them: 256 MiB for all 64),
// and VmSize within 2 GiB (a kept map is 512 MiB of address space: 32 GiB
// for all 64, whatever the page size).
func TestDroppedDevicesReturnTheirImages(t *testing.T) {
	const devices, size = 64, 256 << 20
	runtime.GC()
	rss0, vm0 := procStatus(t, "VmRSS"), procStatus(t, "VmSize")
	line := bytes.Repeat([]byte{0x5A}, LineSize)
	for i := 0; i < devices; i++ {
		m := New(size)
		off := i * (size / devices)
		m.Write(off, line)
		m.Flush(off, LineSize)
		runtime.GC()
	}
	// Finalizers run on their own goroutine after the collection that
	// finds a device gone: wait for the last ones.
	var rss, vm int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		rss, vm = procStatus(t, "VmRSS"), procStatus(t, "VmSize")
		if rss-rss0 <= 64<<20 && vm-vm0 <= 2<<30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d dropped devices VmRSS grew %d MiB (want at most 64) and VmSize %d MiB (want at most 2048)",
				devices, (rss-rss0)>>20, (vm-vm0)>>20)
		}
	}
	t.Logf("after %d dropped devices of %d MiB: VmRSS %+d KiB, VmSize %+d MiB", devices, size>>20, (rss-rss0)>>10, (vm-vm0)>>20)
}
