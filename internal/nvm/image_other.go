//go:build !unix

package nvm

// mapAnon maps nothing on an OS without mmap: every image is a Go slice.
func mapAnon(int) []byte { return nil }

func unmap([]byte) {}
