package rnic

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"efactory/internal/model"
	"efactory/internal/nvm"
	"efactory/internal/sim"
)

// testRig wires a client NIC and a server NIC with one MR over dev.
func testRig(t *testing.T, devSize int) (*sim.Env, *model.Params, *nvm.Memory, *MR, *Endpoint, *Endpoint) {
	t.Helper()
	env := sim.NewEnv(1)
	par := model.Default()
	par.JitterFrac = 0 // exact-latency assertions need determinism
	dev := nvm.New(devSize)
	server := NewNIC(env, &par, "server")
	client := NewNIC(env, &par, "client")
	mr := server.RegisterMR(dev, 0, dev.Size())
	cliEP, srvEP := Connect(client, server)
	return env, &par, dev, mr, cliEP, srvEP
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	env, _, _, mr, cli, _ := testRig(t, 4096)
	payload := []byte("one-sided payload")
	var got []byte
	env.Go("client", func(p *sim.Proc) {
		if err := cli.Write(p, payload, mr.RKey(), 128); err != nil {
			t.Errorf("Write: %v", err)
		}
		got = make([]byte, len(payload))
		if err := cli.Read(p, got, mr.RKey(), 128); err != nil {
			t.Errorf("Read: %v", err)
		}
	})
	env.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
}

func TestWriteCompletionIsNotDurability(t *testing.T) {
	env, _, dev, mr, cli, _ := testRig(t, 4096)
	payload := bytes.Repeat([]byte{0xEE}, 256)
	env.Go("client", func(p *sim.Proc) {
		if err := cli.Write(p, payload, mr.RKey(), 0); err != nil {
			t.Errorf("Write: %v", err)
		}
		// Completion received. The data must be visible coherently...
		got := make([]byte, 256)
		dev.Read(0, got)
		if !bytes.Equal(got, payload) {
			t.Error("completed write not coherently visible")
		}
		// ...but NOT persistent until flushed (the paper's core hazard).
		dev.ReadPersisted(0, got)
		if !bytes.Equal(got, make([]byte, 256)) {
			t.Error("completed write already persistent; DDIO model broken")
		}
		dev.Flush(0, 256)
		dev.ReadPersisted(0, got)
		if !bytes.Equal(got, payload) {
			t.Error("flush did not persist DMA data")
		}
	})
	env.Run()
}

func TestReadLatencyMatchesModel(t *testing.T) {
	env, par, _, mr, cli, _ := testRig(t, 8192)
	const n = 4096
	var elapsed time.Duration
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		buf := make([]byte, n)
		if err := cli.Read(p, buf, mr.RKey(), 0); err != nil {
			t.Errorf("Read: %v", err)
		}
		elapsed = p.Now() - start
	})
	env.Run()
	want := par.PostCost + par.OneWay(0) + par.OneWay(n)
	if elapsed != want {
		t.Fatalf("READ(%d) took %v, want %v", n, elapsed, want)
	}
}

func TestWriteLatencyMatchesModel(t *testing.T) {
	env, par, _, mr, cli, _ := testRig(t, 8192)
	const n = 1024
	var elapsed time.Duration
	env.Go("client", func(p *sim.Proc) {
		start := p.Now()
		if err := cli.Write(p, make([]byte, n), mr.RKey(), 0); err != nil {
			t.Errorf("Write: %v", err)
		}
		elapsed = p.Now() - start
	})
	env.Run()
	want := par.PostCost + par.OneWay(n) + par.OneWay(0)
	if elapsed != want {
		t.Fatalf("WRITE(%d) took %v, want %v", n, elapsed, want)
	}
}

func TestSendRecv(t *testing.T) {
	env, _, _, _, cli, srv := testRig(t, 4096)
	var got []string
	env.Go("server", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			msg, ok := srv.Recv(p)
			if !ok {
				t.Error("recv queue closed early")
				return
			}
			got = append(got, string(msg.Data))
		}
	})
	env.Go("client", func(p *sim.Proc) {
		for _, s := range []string{"a", "bb", "ccc"} {
			if err := cli.Send(p, []byte(s)); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	})
	env.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "bb" || got[2] != "ccc" {
		t.Fatalf("server received %v", got)
	}
}

func TestSendIsCopied(t *testing.T) {
	env, _, _, _, cli, srv := testRig(t, 4096)
	var got []byte
	env.Go("server", func(p *sim.Proc) {
		msg, _ := srv.Recv(p)
		got = msg.Data
	})
	env.Go("client", func(p *sim.Proc) {
		buf := []byte("original")
		cli.Send(p, buf)
		copy(buf, "MUTATED!") // caller reuses its buffer immediately
	})
	env.Run()
	if string(got) != "original" {
		t.Fatalf("send aliased caller buffer: got %q", got)
	}
}

func TestReplyOverFromEndpoint(t *testing.T) {
	env, _, _, _, cli, srv := testRig(t, 4096)
	var reply []byte
	env.Go("server", func(p *sim.Proc) {
		msg, _ := srv.Recv(p)
		msg.From.Send(p, append([]byte("re:"), msg.Data...))
	})
	env.Go("client", func(p *sim.Proc) {
		cli.Send(p, []byte("ping"))
		msg, _ := cli.Recv(p)
		reply = msg.Data
	})
	env.Run()
	if string(reply) != "re:ping" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestSRQSharedAcrossConnections(t *testing.T) {
	env := sim.NewEnv(1)
	par := model.Default()
	server := NewNIC(env, &par, "server")
	srq := server.EnableSRQ()
	var eps []*Endpoint
	for i := 0; i < 3; i++ {
		c := NewNIC(env, &par, "client")
		ce, _ := Connect(c, server)
		eps = append(eps, ce)
	}
	count := 0
	env.Go("server", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, ok := srq.Get(p); ok {
				count++
			}
		}
	})
	for i, ep := range eps {
		ep := ep
		env.Go("client", func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			ep.Send(p, []byte{byte(i)})
		})
	}
	env.Run()
	if count != 3 {
		t.Fatalf("SRQ delivered %d of 3 messages", count)
	}
}

func TestWriteImmDeliversAfterData(t *testing.T) {
	env, _, dev, mr, cli, srv := testRig(t, 4096)
	payload := []byte("imm-carried payload")
	env.Go("server", func(p *sim.Proc) {
		msg, _ := srv.Recv(p)
		if !msg.IsImm || msg.Imm != 0x42 {
			t.Errorf("bad notification: %+v", msg)
		}
		// Data must already be coherently visible when the imm arrives.
		got := make([]byte, len(payload))
		dev.Read(64, got)
		if !bytes.Equal(got, payload) {
			t.Error("imm delivered before data")
		}
	})
	env.Go("client", func(p *sim.Proc) {
		if err := cli.WriteImm(p, payload, mr.RKey(), 64, 0x42); err != nil {
			t.Errorf("WriteImm: %v", err)
		}
	})
	env.Run()
}

func TestBoundsAndRKeyErrors(t *testing.T) {
	env, _, _, mr, cli, _ := testRig(t, 4096)
	env.Go("client", func(p *sim.Proc) {
		buf := make([]byte, 64)
		if err := cli.Read(p, buf, 999, 0); !errors.Is(err, ErrBounds) {
			t.Errorf("unknown rkey: err = %v", err)
		}
		if err := cli.Read(p, buf, mr.RKey(), mr.Size()-10); !errors.Is(err, ErrBounds) {
			t.Errorf("overflow read: err = %v", err)
		}
		if err := cli.Write(p, buf, mr.RKey(), -1); !errors.Is(err, ErrBounds) {
			t.Errorf("negative offset: err = %v", err)
		}
	})
	env.Run()
}

func TestVerbsAgainstCrashedNICFail(t *testing.T) {
	env, _, _, mr, cli, srv := testRig(t, 4096)
	srv.nic.Crash()
	env.Go("client", func(p *sim.Proc) {
		buf := make([]byte, 16)
		if err := cli.Read(p, buf, mr.RKey(), 0); !errors.Is(err, ErrCrashed) {
			t.Errorf("Read: err = %v, want ErrCrashed", err)
		}
		if err := cli.Write(p, buf, mr.RKey(), 0); !errors.Is(err, ErrCrashed) {
			t.Errorf("Write: err = %v, want ErrCrashed", err)
		}
		if err := cli.Send(p, buf); !errors.Is(err, ErrCrashed) {
			t.Errorf("Send: err = %v, want ErrCrashed", err)
		}
	})
	env.Run()
}

func TestCrashTruncatesInflightWriteAtLineBoundary(t *testing.T) {
	env, par, dev, mr, cli, srv := testRig(t, 8192)
	payload := bytes.Repeat([]byte{0xAB}, 4096) // 64 cache lines
	var writeErr error
	env.Go("client", func(p *sim.Proc) {
		writeErr = cli.Write(p, payload, mr.RKey(), 0)
	})
	// Crash the server roughly halfway through the data propagation.
	half := par.PostCost + par.OneWay(4096)/2
	env.After(half, func() { srv.nic.Crash() })
	env.Run()

	if !errors.Is(writeErr, ErrCrashed) {
		t.Fatalf("in-flight write returned %v, want ErrCrashed", writeErr)
	}
	got := make([]byte, 4096)
	dev.Read(0, got)
	// Expect a prefix of 0xAB bytes, truncated at a line boundary, neither
	// empty nor complete.
	n := 0
	for n < len(got) && got[n] == 0xAB {
		n++
	}
	if n%nvm.LineSize != 0 {
		t.Errorf("torn prefix %d not line-aligned", n)
	}
	if n == 0 || n == 4096 {
		t.Errorf("torn prefix = %d bytes; expected partial delivery", n)
	}
	for _, b := range got[n:] {
		if b != 0 {
			t.Fatal("non-contiguous DMA materialization")
		}
	}
}

func TestRestartClearsRegions(t *testing.T) {
	env, _, _, mr, cli, srv := testRig(t, 4096)
	srv.nic.Crash()
	srv.nic.Restart()
	env.Go("client", func(p *sim.Proc) {
		buf := make([]byte, 8)
		// Old rkeys must not survive a restart.
		if err := cli.Read(p, buf, mr.RKey(), 0); !errors.Is(err, ErrBounds) {
			t.Errorf("stale rkey after restart: err = %v", err)
		}
	})
	env.Run()
}

func TestNICAccessors(t *testing.T) {
	env, _, dev, mr, _, srv := testRig(t, 4096)
	_ = env
	if srv.nic.Name() != "server" {
		t.Fatalf("Name = %q", srv.nic.Name())
	}
	if srv.nic.Crashed() {
		t.Fatal("fresh NIC crashed")
	}
	if mr.Device() != dev {
		t.Fatal("MR device mismatch")
	}
	srv.nic.InvalidateMR(mr)
	if _, err := srv.nic.lookup(mr.RKey(), 0, 8); err == nil {
		t.Fatal("invalidated MR still resolvable")
	}
}

func TestDeliverToCrashedNICDrops(t *testing.T) {
	env, _, _, _, cli, srv := testRig(t, 4096)
	env.Go("client", func(p *sim.Proc) {
		// Crash AFTER the send is posted but before delivery.
		if err := cli.Send(p, []byte("doomed")); err != nil {
			t.Errorf("Send: %v", err)
		}
		srv.nic.Crash()
	})
	env.Run()
	if srv.RecvQueue().Len() != 0 {
		t.Fatal("message delivered to a crashed NIC")
	}
}

func TestReadBatchFetchesAll(t *testing.T) {
	env, _, dev, mr, cli, _ := testRig(t, 8192)
	want := make([][]byte, 5)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte('a' + i)}, 96)
		dev.Write(256*i, want[i])
		dev.Flush(256*i, 96)
	}
	dev.Drain()
	reqs := make([]ReadReq, len(want))
	for i := range reqs {
		reqs[i] = ReadReq{Dst: make([]byte, 96), RKey: mr.RKey(), Off: 256 * i}
	}
	env.Go("client", func(p *sim.Proc) {
		if err := cli.ReadBatch(p, reqs); err != nil {
			t.Errorf("ReadBatch: %v", err)
		}
	})
	env.Run()
	for i := range want {
		if !bytes.Equal(reqs[i].Dst, want[i]) {
			t.Fatalf("req %d read %q, want %q", i, reqs[i].Dst[:8], want[i][:8])
		}
	}
}

func TestReadBatchSingleCompletionCharge(t *testing.T) {
	// A chain of n READs must cost one doorbell-batched post, one request
	// crossing, and one serialized response — strictly cheaper than n
	// individual READs, and exactly the model's chained cost.
	env, par, _, mr, cli, _ := testRig(t, 1<<16)
	const n, sz = 8, 128
	var batched, single time.Duration
	env.Go("client", func(p *sim.Proc) {
		reqs := make([]ReadReq, n)
		for i := range reqs {
			reqs[i] = ReadReq{Dst: make([]byte, sz), RKey: mr.RKey(), Off: sz * i}
		}
		t0 := env.Now()
		if err := cli.ReadBatch(p, reqs); err != nil {
			t.Errorf("ReadBatch: %v", err)
		}
		batched = env.Now() - t0
		t0 = env.Now()
		buf := make([]byte, sz)
		for i := 0; i < n; i++ {
			if err := cli.Read(p, buf, mr.RKey(), sz*i); err != nil {
				t.Errorf("Read: %v", err)
			}
		}
		single = env.Now() - t0
	})
	env.Run()
	wantBatched := par.PostCost + time.Duration(n-1)*par.PostCostDoorbell +
		par.OneWay(0) + par.OneWay(n*sz)
	if batched != wantBatched {
		t.Fatalf("batched chain took %v, want %v", batched, wantBatched)
	}
	if batched >= single {
		t.Fatalf("batched %v not cheaper than %d singles %v", batched, n, single)
	}
}

func TestReadBatchBoundsAbort(t *testing.T) {
	env, _, _, mr, cli, _ := testRig(t, 4096)
	env.Go("client", func(p *sim.Proc) {
		reqs := []ReadReq{
			{Dst: make([]byte, 64), RKey: mr.RKey(), Off: 0},
			{Dst: make([]byte, 64), RKey: mr.RKey(), Off: 1 << 20}, // outside the MR
		}
		if err := cli.ReadBatch(p, reqs); !errors.Is(err, ErrBounds) {
			t.Errorf("ReadBatch err = %v, want ErrBounds", err)
		}
	})
	env.Run()
}
