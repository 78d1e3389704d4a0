package nvm

import (
	"fmt"
	"os"
	"slices"
)

// FileBacked is a Device whose persistent media is a real file, so
// durability survives process restarts: the overlay's durable image is a
// mirror of the file, every change to it (a flushed line, a zeroed range)
// is written through, and Drain issues fsync. It backs the TCP deployment
// mode (cmd/efactory-server), where a killed and restarted server must
// recover from genuinely persistent state.
type FileBacked struct {
	overlay
	f       *os.File
	pending bool // file written since the last fsync; guarded by mu
}

var _ Device = (*FileBacked)(nil)

// OpenFile opens (creating or extending if needed) a file-backed device of
// the given size. Existing contents within size are preserved, which is how
// recovery after a restart sees the pre-crash state.
func OpenFile(path string, size int) (*FileBacked, error) {
	if size <= 0 {
		return nil, fmt.Errorf("nvm: size must be positive, got %d", size)
	}
	size = roundUp(size)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("nvm: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("nvm: stat %s: %w", path, err)
	}
	if st.Size() < int64(size) {
		if err := f.Truncate(int64(size)); err != nil {
			f.Close()
			return nil, fmt.Errorf("nvm: extend %s: %w", path, err)
		}
	}
	persist := make([]byte, size)
	if _, err := f.ReadAt(persist, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("nvm: read %s: %w", path, err)
	}
	d := &FileBacked{f: f}
	d.init(slices.Clone(persist), persist)
	d.wrote = d.writeThrough
	return d, nil
}

// writeThrough copies persist[off:off+n] to the file. An I/O error here is
// fatal: the device can no longer honour its durability contract.
func (d *FileBacked) writeThrough(off, n int) {
	if _, err := d.f.WriteAt(d.persist[off:off+n], int64(off)); err != nil {
		panic(fmt.Sprintf("nvm: write of [%d, %d) to %s failed: %v", off, off+n, d.f.Name(), err))
	}
	d.pending = true
}

// Drain fsyncs what flushes and zeroes have written since the last Drain.
func (d *FileBacked) Drain() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.pending {
		return
	}
	if err := d.f.Sync(); err != nil {
		panic(fmt.Sprintf("nvm: fsync failed: %v", err))
	}
	d.pending = false
}

// Close releases the file handle after a final sync.
func (d *FileBacked) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}
