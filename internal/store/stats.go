package store

// Stats counts engine events for one shard. It is the union of the
// counters the two transports used to keep separately; JSON field names
// match the old tcpkv stats blob so existing tooling keeps decoding it.
type Stats struct {
	Puts           int // PUT requests handled
	Gets           int // GET (RPC-path) requests handled
	Dels           int // DELETE requests handled
	GetFastPath    int // RPC gets satisfied by the durability check alone
	GetVerified    int // RPC gets that verified+persisted on demand
	GetRolledBack  int // RPC gets answered from a previous version
	GetInvalidated int // versions invalidated on the GET path after VerifyTimeout
	GetBatches     int // multi-key GetBatch calls (one lock acquisition each)
	PutBatches     int // multi-op PutBatch calls (one lock acquisition each)
	HintedLookups  int // lookups resolved from a client slot hint
	HintedStale    int // client slot hints that no longer matched their key
	BGVerified     int // objects verified+persisted by the background thread
	BGSkipped      int // objects the background thread skipped (already durable)
	BGStale        int // superseded versions the background thread skipped
	BGInvalidated  int // versions invalidated in the background after VerifyTimeout
	BGBatched      int // multi-object coalesced flush runs issued by BGBatch
	Cleanings      int // completed log-cleaning runs
	CleanMoved     int // objects migrated during cleaning
	CleanDropped   int // stale/invalid versions reclaimed
	AllocFailures  int // PUTs rejected because the pool or table was full
	SlotsReleased  int // freshly claimed table slots given back after a pool-full PUT
	Recovered      int // keys restored by startup recovery
	RolledBack     int // keys recovered from a non-head (older) version
	KeysExported   int // entries exported: copies, promotion pulls, mirrored DELETEs and compensations
	KeysImported   int // exported keys ingested from a peer
	KeysPurged     int // entries cleared after their PG migrated away
	TxnStages      int // transactional writes staged (invisible pre-commit)
	TxnCommits     int // multi-key transactions committed
	TxnAborts      int // transactions aborted (pool/table full during commit)
	TxnReads       int // snapshot (seq-bounded) reads served
}

// Add accumulates o into s (aggregating per-shard stats).
func (s *Stats) Add(o Stats) {
	s.Puts += o.Puts
	s.Gets += o.Gets
	s.Dels += o.Dels
	s.GetFastPath += o.GetFastPath
	s.GetVerified += o.GetVerified
	s.GetRolledBack += o.GetRolledBack
	s.GetInvalidated += o.GetInvalidated
	s.GetBatches += o.GetBatches
	s.PutBatches += o.PutBatches
	s.HintedLookups += o.HintedLookups
	s.HintedStale += o.HintedStale
	s.BGVerified += o.BGVerified
	s.BGSkipped += o.BGSkipped
	s.BGStale += o.BGStale
	s.BGInvalidated += o.BGInvalidated
	s.BGBatched += o.BGBatched
	s.Cleanings += o.Cleanings
	s.CleanMoved += o.CleanMoved
	s.CleanDropped += o.CleanDropped
	s.AllocFailures += o.AllocFailures
	s.SlotsReleased += o.SlotsReleased
	s.Recovered += o.Recovered
	s.RolledBack += o.RolledBack
	s.KeysExported += o.KeysExported
	s.KeysImported += o.KeysImported
	s.KeysPurged += o.KeysPurged
	s.TxnStages += o.TxnStages
	s.TxnCommits += o.TxnCommits
	s.TxnAborts += o.TxnAborts
	s.TxnReads += o.TxnReads
}

// RecoveryStats summarizes what recovery found in the persisted image.
type RecoveryStats struct {
	KeysRecovered     int // entries restored with an intact version
	KeysLost          int // entries whose every version was torn or missing
	VersionsDiscarded int // torn versions skipped while walking chains
	RolledBack        int // keys recovered from a non-head (older) version
	TxnsReplayed      int // committed transactions replayed from their record
	TxnsDiscarded     int // unrecorded/torn transactions discarded whole
}

// Add accumulates o into r (aggregating per-shard recovery results).
func (r *RecoveryStats) Add(o RecoveryStats) {
	r.KeysRecovered += o.KeysRecovered
	r.KeysLost += o.KeysLost
	r.VersionsDiscarded += o.VersionsDiscarded
	r.RolledBack += o.RolledBack
	r.TxnsReplayed += o.TxnsReplayed
	r.TxnsDiscarded += o.TxnsDiscarded
}
