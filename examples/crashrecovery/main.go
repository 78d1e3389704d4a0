// Crash recovery: demonstrate the consistency guarantee that motivates the
// whole design. A client updates an object; the node crashes while the new
// version's RDMA write is still in flight, leaving a torn object in NVM.
// Recovery walks the version list, detects the torn head by CRC, and rolls
// the key back to the newest intact version — the value a reader observed
// before the crash is still there afterwards (monotonic reads, which
// systems like Erda cannot promise).
package main

import (
	"fmt"
	"log"
	"time"

	"efactory"
)

func main() {
	env := efactory.NewEnv(7)
	par := efactory.DefaultParams()
	cfg := efactory.DefaultConfig()
	srv := efactory.NewServer(env, &par, cfg)
	cl := srv.AttachClient("writer")

	fmt.Println("== eFactory crash recovery ==")

	var observed []byte
	env.Go("app", func(p *efactory.Proc) {
		// Write v1 and read it back: the read forces durability (the
		// selective durability guarantee), so v1 is now crash-proof.
		cl.Put(p, []byte("account-42"), []byte("balance=100"))
		v, err := cl.Get(p, []byte("account-42"))
		if err != nil {
			fmt.Println("get:", err)
			return
		}
		observed = v
		fmt.Printf("t=%v  observed %q (now durable)\n", p.Now(), v)

		// Start overwriting with a large value; the crash will hit while
		// this write's DMA is in flight.
		big := make([]byte, 4096)
		copy(big, "balance=999 ...")
		cl.Put(p, []byte("account-42"), big)
	})

	// Crash the node while the 4 KB value is crossing the fabric.
	crashAt := 16 * time.Microsecond
	env.After(crashAt, func() {
		fmt.Printf("t=%v  *** power failure ***\n", crashAt)
		srv.NIC().Crash() // truncates the in-flight DMA at a line boundary
		srv.Stop()
	})
	env.RunUntil(crashAt + time.Millisecond)

	// Apply the NVM eviction model: half the unflushed cache lines made
	// it to the media before the failure, half did not — the torn state.
	dev := srv.Device()
	dev.Crash(99, 0.5)

	// Recover on the same device in a fresh environment.
	env2 := efactory.NewEnv(8)
	srv2, st, err := efactory.Recover(env2, &par, cfg, dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: %d keys restored, %d versions discarded, %d rolled back\n",
		st.KeysRecovered, st.VersionsDiscarded, st.RolledBack)

	cl2 := srv2.AttachClient("reader")
	env2.Go("verify", func(p *efactory.Proc) {
		v, err := cl2.Get(p, []byte("account-42"))
		if err != nil {
			fmt.Println("post-crash get:", err)
		} else {
			preview := v
			if len(preview) > 16 {
				preview = preview[:16]
			}
			fmt.Printf("post-crash read: %q (%d bytes)\n", preview, len(v))
			if string(v) == string(observed) {
				fmt.Println("=> rolled back to the intact version a reader had observed: consistent")
			} else {
				fmt.Println("=> newer version survived intact: also consistent")
			}
		}
		srv2.Stop()
	})
	env2.Run()
}
