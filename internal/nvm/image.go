package nvm

import "runtime"

// hugePage is the size of a transparent huge page on x86-64 and arm64
// Linux: an image at least this large is mapped rather than allocated.
const hugePage = 2 << 20

// mapping owns the anonymous mapping both images of one device live in.
// Only the device points at it, so the finalizer that unmaps it runs once
// the device is unreachable, also when the device points at itself (a
// FileBacked's write-through hook does).
type mapping struct{ mem []byte }

// newImages returns the zeroed view and persist images of a device of
// size bytes. An image of at least one huge page comes from the kernel: one
// anonymous mapping holds both images, each starting on a huge-page
// boundary of it, so a device costs RAM only for the pages stored to, in
// huge pages where the kernel grants them, and Go never clears or scans
// it. The device must keep the returned mapping for as long as it uses
// the images. A smaller image, one on an OS without mmap, or one whose map
// failed, is a pair of Go slices and has no mapping.
func newImages(size int) (view, persist []byte, m *mapping) {
	if size >= hugePage {
		half := (size + hugePage - 1) / hugePage * hugePage
		if mem := mapAnon(2 * half); mem != nil {
			m = &mapping{mem: mem}
			runtime.SetFinalizer(m, func(m *mapping) { unmap(m.mem) })
			return mem[:size:size], mem[half : half+size : half+size], m
		}
	}
	return make([]byte, size), make([]byte, size), nil
}
