package tcpkv

import (
	"fmt"
	"io"

	"efactory/internal/kv"
	"efactory/internal/nvm"
	"efactory/internal/store"
)

// FsckReport summarizes an offline consistency check of a store device.
type FsckReport struct {
	// Objects found walking both log pools.
	Objects int
	// LiveKeys is the number of hash entries resolving to an intact
	// version.
	LiveKeys int
	// TornHeads counts entries whose head version fails its CRC but that
	// recover via an older version (recovery's RolledBack).
	TornHeads int
	// LostKeys counts entries with no intact version at all.
	LostKeys int
	// Tombstones counts deleted entries awaiting reclamation.
	Tombstones int
	// StaleBytes is the pool space held by non-head versions — what a log
	// cleaning run would reclaim.
	StaleBytes int
	// LiveBytes is the pool space held by resolvable head versions.
	LiveBytes int
	// UnflushedLines counts volatile cache lines (nonzero means the
	// device was not cleanly shut down).
	UnflushedLines int
}

// Consistent reports whether the store would recover with no data loss
// beyond never-durable writes.
func (r FsckReport) Consistent() bool { return r.LostKeys == 0 }

// Fsck performs a read-only consistency check of a store device laid out
// with cfg: it walks the log pools of every shard and resolves every hash
// entry with recovery's own resolver (store.ResolvePersisted) against the
// persisted image, so its live, lost and torn counts are what recovery
// would find. It never modifies the device.
func Fsck(dev nvm.Device, cfg Config) (FsckReport, error) {
	var r FsckReport
	if dev.Size() < cfg.DeviceSize() {
		return r, fmt.Errorf("tcpkv: device %d B smaller than config needs (%d B)", dev.Size(), cfg.DeviceSize())
	}
	l := cfg.Layout()
	for s := 0; s < l.Shards; s++ {
		fsckShard(dev, l, s, &r)
	}
	if d, ok := dev.(interface{ DirtyLines() int }); ok {
		r.UnflushedLines = d.DirtyLines()
	}
	return r, nil
}

// fsckShard checks one shard's table and pools, accumulating into r.
func fsckShard(dev nvm.Device, l kv.Layout, shard int, r *FsckReport) {
	table := kv.NewTable(dev, l.TableBase(shard), l.Buckets)
	var pools [2]*kv.Pool
	used, live := 0, 0
	for i := range pools {
		pools[i] = kv.NewPool(dev, l.PoolBase(shard, i), l.PoolSize)
		pools[i].ScanPersisted(func(off uint64, h kv.Header) bool {
			r.Objects++
			used += kv.ObjectSize(h.KLen, h.VLen)
			return true
		})
	}
	table.RangeAll(func(i int, e kv.Entry) bool {
		if e.Tombstone() {
			r.Tombstones++
			return true
		}
		ph, ok := store.ResolvePersisted(pools, e)
		if !ok {
			r.LostKeys++
			return true
		}
		r.LiveKeys++
		live += kv.ObjectSize(ph.Header.KLen, ph.Header.VLen)
		if ph.Rolled {
			r.TornHeads++
		}
		return true
	})
	r.LiveBytes += live
	r.StaleBytes += max(used-live, 0)
}

// WriteReport renders r human-readably.
func (r FsckReport) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "objects in log:      %d\n", r.Objects)
	fmt.Fprintf(w, "live keys:           %d (%d bytes)\n", r.LiveKeys, r.LiveBytes)
	fmt.Fprintf(w, "torn heads (rolled): %d\n", r.TornHeads)
	fmt.Fprintf(w, "lost keys:           %d\n", r.LostKeys)
	fmt.Fprintf(w, "tombstones:          %d\n", r.Tombstones)
	fmt.Fprintf(w, "reclaimable bytes:   %d\n", r.StaleBytes)
	if r.UnflushedLines > 0 {
		fmt.Fprintf(w, "unflushed lines:     %d (unclean shutdown)\n", r.UnflushedLines)
	}
	if r.Consistent() {
		fmt.Fprintln(w, "verdict: CONSISTENT (recovery loses nothing that was ever durable)")
	} else {
		fmt.Fprintln(w, "verdict: LOSSY (some keys have no intact version; they were never durable)")
	}
}
