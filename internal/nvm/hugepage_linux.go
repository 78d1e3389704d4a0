package nvm

import "syscall"

// adviseHuge asks for transparent huge pages, which a kernel whose THP
// mode is "madvise" grants only to an advised range. A refusal leaves the
// range on base pages.
func adviseHuge(mem []byte) { _ = syscall.Madvise(mem, syscall.MADV_HUGEPAGE) }
