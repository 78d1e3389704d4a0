package efactory_test

import (
	"fmt"

	"efactory"
)

// Example demonstrates the basic simulated-cluster workflow: bring up a
// server, attach a client, write and read an object inside a simulated
// process, and observe the virtual clock.
func Example() {
	env := efactory.NewEnv(1)
	par := efactory.DefaultParams()
	srv := efactory.NewServer(env, &par, efactory.DefaultConfig())
	cl := srv.AttachClient("example")

	env.Go("app", func(p *efactory.Proc) {
		if err := cl.Put(p, []byte("greeting"), []byte("hello, NVM")); err != nil {
			fmt.Println("put:", err)
			return
		}
		v, err := cl.Get(p, []byte("greeting"))
		if err != nil {
			fmt.Println("get:", err)
			return
		}
		fmt.Printf("read %q\n", v)
		srv.Stop()
	})
	env.Run()
	// Output: read "hello, NVM"
}

// Example_crashConsistency shows the durability contract: after a crash
// that drops every unflushed cache line, a previously read (and therefore
// durable) value survives recovery.
func Example_crashConsistency() {
	env := efactory.NewEnv(2)
	par := efactory.DefaultParams()
	cfg := efactory.DefaultConfig()
	srv := efactory.NewServer(env, &par, cfg)
	cl := srv.AttachClient("writer")

	env.Go("app", func(p *efactory.Proc) {
		cl.Put(p, []byte("k"), []byte("durable-value"))
		cl.Get(p, []byte("k")) // reading forces durability
		srv.NIC().Crash()
		srv.Stop()
	})
	env.Run()

	dev := srv.Device()
	dev.Crash(1, 0) // power failure: all unflushed lines lost

	env2 := efactory.NewEnv(3)
	srv2, stats, err := efactory.Recover(env2, &par, cfg, dev)
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered %d key(s)\n", stats.KeysRecovered)
	cl2 := srv2.AttachClient("reader")
	env2.Go("verify", func(p *efactory.Proc) {
		v, _ := cl2.Get(p, []byte("k"))
		fmt.Printf("after crash: %q\n", v)
		srv2.Stop()
	})
	env2.Run()
	// Output:
	// recovered 1 key(s)
	// after crash: "durable-value"
}
