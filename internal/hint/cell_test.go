package hint

import (
	"testing"
	"unsafe"
)

// TestCellSize pins the table's memory: 32 bytes per server bucket per
// shard.
func TestCellSize(t *testing.T) {
	if n := unsafe.Sizeof(cell{}); n > 32 {
		t.Fatalf("a cell is %d bytes, budget 32", n)
	}
}
