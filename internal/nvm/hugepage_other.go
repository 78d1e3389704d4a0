//go:build unix && !linux

package nvm

// adviseHuge does nothing: only Linux's syscall package has madvise.
func adviseHuge([]byte) {}
