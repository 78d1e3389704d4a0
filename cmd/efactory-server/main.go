// Command efactory-server runs the eFactory key-value store over TCP with
// a file-backed NVM device, so the store survives restarts: on startup it
// recovers by rolling every key back to its newest intact version.
//
// Usage:
//
//	efactory-server [-addr :7420] [-store /path/store.nvm] [-pool 64MiB] [-buckets 16384] [-shards 1] [-bg-batch 1] [-pipeline-workers 4] [-max-get-batch 1024] [-metrics-addr :9420] [-slow-ms 0] [-instance name [-join host:7420] [-pgs 16] [-advertise host:port] [-replicas 1]]
//
// -bg-batch > 1 lets the background verifier group-verify and group-flush
// up to that many contiguous objects per run; -pipeline-workers bounds the
// concurrent in-flight RPCs served per pipelined client connection;
// -max-get-batch caps how many keys one multi-GET request may carry.
//
// -instance enables the cluster placement layer: alone it bootstraps a
// new epoch-versioned cluster map with -pgs placement groups, all owned
// by this instance; with -join it instead joins the cluster reachable at
// that address, owning nothing until a migration (efactory-cli migrate)
// hands it placement groups. -advertise sets the address written into the
// map when -addr does not name a host peers can dial.
//
// With -metrics-addr set, the server also serves HTTP telemetry:
// Prometheus text on /metrics, the full JSON snapshot on /debug/vars, the
// structured trace ring on /debug/trace, the retained request traces on
// /debug/slow (?trace=<id> filters to one trace), and Go profiling on
// /debug/pprof. -slow-ms tail-keeps only requests at least that slow
// (errored, wrong-epoch, and migration-window traces are kept regardless).
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"efactory/internal/nvm"
	"efactory/internal/obs"
	"efactory/internal/tcpkv"
)

func main() {
	addr := flag.String("addr", ":7420", "listen address")
	store := flag.String("store", "efactory-store.nvm", "path of the file-backed NVM device")
	poolMiB := flag.Int("pool", 64, "data pool size in MiB; each shard has two pools and the device is held twice in RAM (coherent + durable image), so resident memory is about 4 x pool x shards")
	buckets := flag.Int("buckets", 16384, "hash table buckets per shard")
	shards := flag.Int("shards", 1, "number of storage engine shards")
	bgBatch := flag.Int("bg-batch", 1, "max objects group-verified and group-flushed per background run (1 = per-object)")
	pipeWorkers := flag.Int("pipeline-workers", tcpkv.DefaultPipelineWorkers, "concurrent RPCs served per pipelined client connection")
	maxGetBatch := flag.Int("max-get-batch", 0, "max keys per multi-GET request (0 = built-in default)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus), /debug/vars (JSON), /debug/slow (retained traces), and /debug/pprof on this address; empty disables")
	slowMS := flag.Int("slow-ms", 0, "retain only traces whose root section took at least this many milliseconds (0 = keep every submitted trace; errored/wrong-epoch/migration traces are kept regardless)")
	instance := flag.String("instance", "", "cluster instance name; enables the epoch-versioned cluster map layer")
	join := flag.String("join", "", "address of an existing cluster member to join (requires -instance)")
	pgs := flag.Int("pgs", 16, "placement groups when bootstrapping a new cluster map (ignored with -join)")
	advertise := flag.String("advertise", "", "address peers and routed clients reach this server at (default: -addr, with 127.0.0.1 filled in for an empty host)")
	replicas := flag.Int("replicas", 1, "replication factor per placement group (1 = unreplicated; N>1 mirrors every durability commit to N-1 backups before it is acknowledged)")
	flag.Parse()
	if *join != "" && *instance == "" {
		log.Fatalf("-join requires -instance")
	}
	if *replicas > 1 && *instance == "" {
		log.Fatalf("-replicas requires -instance (replication rides the cluster map)")
	}

	cfg := tcpkv.DefaultConfig()
	cfg.Buckets = *buckets
	cfg.PoolSize = *poolMiB << 20
	cfg.Shards = *shards
	cfg.BGBatch = *bgBatch
	cfg.PipelineWorkers = *pipeWorkers
	cfg.MaxGetBatch = *maxGetBatch
	cfg.Replicas = *replicas

	dev, err := nvm.OpenFile(*store, cfg.DeviceSize())
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer dev.Close()

	srv, err := tcpkv.NewServer(dev, cfg)
	if err != nil {
		log.Fatalf("start server: %v", err)
	}
	if *slowMS > 0 {
		srv.SetTraceRetention(uint64(*slowMS) * 1e6)
	}
	st := srv.Stats()
	log.Printf("efactory-server: store %s, pool %d MiB, %d buckets, %d shard(s)",
		*store, *poolMiB, *buckets, srv.Store().NumShards())
	if st.Recovered > 0 || st.RolledBack > 0 {
		log.Printf("recovery: %d keys restored, %d rolled back to a previous intact version",
			st.Recovered, st.RolledBack)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(srv.Metrics()))
		mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
			srv.Tracer().ServeSlow(w, r)
		})
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			log.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		defer msrv.Close()
	}

	go func() {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		<-sigc
		log.Printf("shutting down")
		srv.Close()
	}()

	// Bind before any cluster join so the advertised address is live by
	// the time peers learn it from the map.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if *instance != "" {
		adv := *advertise
		if adv == "" {
			adv = *addr
			if strings.HasPrefix(adv, ":") {
				adv = "127.0.0.1" + adv
			}
		}
		if *join == "" {
			srv.EnableCluster(*instance, adv, *pgs)
			log.Printf("cluster: bootstrapped map with %d placement groups (replication factor %d); instance %q at %s owns all",
				*pgs, *replicas, *instance, adv)
		} else {
			m, err := srv.Join(*instance, adv, *join)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("cluster: joined via %s as instance %q at %s (map epoch %d, %d instances); owns nothing until a migration",
				*join, *instance, adv, m.Epoch, len(m.Instances))
		}
	}

	log.Printf("listening on %s", *addr)
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
	srv.Close()
}
