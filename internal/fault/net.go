package fault

import (
	"sync"
	"time"
)

// NetPlan injects network faults into the tcpkv server, deterministically
// by count: every DropEvery-th response frame — a TReadResp among them —
// the connection is cut (optionally after leaking a truncated prefix of
// the frame, so the client sees a partial read rather than a clean EOF),
// and every StallEvery-th READ the server serves, counting each READ of a
// TRead burst, stalls for StallFor before it is read. A nil plan injects
// nothing. Counters are global across connections so a reconnecting
// client keeps meeting faults.
type NetPlan struct {
	DropEvery    int           // cut the connection every Nth response frame (0 = never)
	PartialFrame bool          // leak a truncated frame prefix before cutting
	StallEvery   int           // stall every Nth served READ (0 = never)
	StallFor     time.Duration // how long a stalled read sleeps

	mu     sync.Mutex
	frames int64
	reads  int64
}

// NextFrame counts one outgoing response frame and reports whether to cut
// the connection instead of sending it, and whether to leak a truncated
// prefix first.
func (n *NetPlan) NextFrame() (drop, partial bool) {
	if n == nil || n.DropEvery <= 0 {
		return false, false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.frames++
	if n.frames%int64(n.DropEvery) == 0 {
		return true, n.PartialFrame
	}
	return false, false
}

// NextRead counts one served READ and returns how long to stall before
// serving it (0 = serve immediately).
func (n *NetPlan) NextRead() time.Duration {
	if n == nil || n.StallEvery <= 0 {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reads++
	if n.reads%int64(n.StallEvery) == 0 {
		return n.StallFor
	}
	return 0
}
