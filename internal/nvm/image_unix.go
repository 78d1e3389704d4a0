//go:build unix

package nvm

import "syscall"

// mapAnon returns n zeroed bytes of private anonymous memory, advised to
// be backed by huge pages, or nil if the kernel refuses the map.
func mapAnon(n int) []byte {
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil
	}
	adviseHuge(mem)
	return mem
}

// unmap returns a mapAnon region to the kernel.
func unmap(mem []byte) {
	if err := syscall.Munmap(mem); err != nil {
		panic("nvm: munmap: " + err.Error())
	}
}
