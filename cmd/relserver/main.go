// Command relserver serves s-t reliability queries over an uncertain
// graph as a JSON HTTP API, backed by the concurrent batch query engine;
// POST /v1/mutate edits the graph it serves. See server.go for the
// endpoint list.
//
// Example:
//
//	relserver -dataset BioMine -addr :8080 -workers 8
//	curl 'localhost:8080/v1/reliability?s=10&t=250&k=1000&estimator=RSS'
//	curl 'localhost:8080/v1/reliability?s=10&t=250&k=1000'   # adaptive routing
//	curl -d '{"queries":[{"s":10,"t":250,"k":1000},{"s":10,"t":251,"k":1000,"estimator":"BFSSharing"}]}' \
//	     'localhost:8080/v1/batch'
//	curl 'localhost:8080/v1/engine/stats'
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// new connections, drains in-flight requests (bounded by -shutdown-grace),
// then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"relcomp"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		dataset   = flag.String("dataset", "lastFM", "synthetic dataset to serve")
		graphFile = flag.String("graph", "", "graph file in text format (overrides -dataset)")
		snapPath  = flag.String("snapshot", "", "prebuilt snapshot file (see relsnap); serves its graph with the indexes memory-mapped, skipping index build")
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		seed      = flag.Uint64("seed", 42, "random seed")
		maxK      = flag.Int("maxk", 2000, "maximum samples per query (BFS Sharing index width)")
		workers   = flag.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
		cacheSize = flag.Int("cache", 4096, "result cache capacity (0 disables)")
		readTO    = flag.Duration("read-timeout", 30*time.Second, "HTTP read timeout (full request, headers and body)")
		writeTO   = flag.Duration("write-timeout", 2*time.Minute, "HTTP write timeout (covers batch computation)")
		grace     = flag.Duration("shutdown-grace", 30*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")

		// Admission control: bounds on concurrent engine work. The defaults
		// keep the server overload-safe out of the box; -max-inflight 0
		// disables admission entirely (every request runs immediately).
		maxInflight = flag.Int("max-inflight", 64, "max concurrently executing engine requests (0 disables admission control)")
		maxQueue    = flag.Int("max-queue", 256, "max requests waiting for admission before new ones are shed with 429")
		queueWait   = flag.Duration("queue-wait", 50*time.Millisecond, "max time a request waits for admission before 503 (0 = engine default)")
		maxSamples  = flag.Int64("max-inflight-samples", 0, "budget of concurrently in-flight sample work, in samples (0 = unlimited)")
		softMemMB   = flag.Int64("soft-mem-mb", 0, "soft heap watermark in MiB above which answers degrade (0 = unlimited)")
	)
	flag.Parse()

	admission := relcomp.AdmissionConfig{
		MaxInflight:        *maxInflight,
		MaxQueue:           *maxQueue,
		QueueWait:          *queueWait,
		MaxInflightSamples: *maxSamples,
		SoftMemBytes:       *softMemMB << 20,
	}

	var srv *server
	if *snapPath != "" {
		// A snapshot carries its own graph, seed, and MaxK; flags that
		// would contradict it are rejected rather than silently ignored.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"dataset", "graph", "scale"} {
			if set[name] {
				log.Fatalf("relserver: -%s conflicts with -snapshot (the snapshot defines the graph)", name)
			}
		}
		start := time.Now()
		cfg := relcomp.EngineConfig{Workers: *workers, CacheSize: *cacheSize, Admission: admission}
		if set["seed"] {
			cfg.Seed = *seed // NewEngineFromSnapshot rejects a mismatch
		}
		if set["maxk"] {
			cfg.MaxK = *maxK
		}
		snap, eng, err := openVerifiedSnapshot(*snapPath, cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer snap.Close()
		srv = newServer(eng)
		if err := attachSidecar(srv, *snapPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("relserver: snapshot %s loaded in %s (mapped=%v, %d bytes, epoch %d)",
			*snapPath, time.Since(start).Round(time.Millisecond), snap.Mapped(), snap.SizeBytes(), eng.Epoch())
	} else {
		var (
			g   *relcomp.Graph
			err error
		)
		if *graphFile != "" {
			g, err = relcomp.ReadGraphFile(*graphFile)
		} else {
			g, err = relcomp.Dataset(*dataset, *scale, *seed)
		}
		if err != nil {
			log.Fatal(err)
		}
		srv = newServerWith(g, relcomp.EngineConfig{
			Seed:      *seed,
			MaxK:      *maxK,
			Workers:   *workers,
			CacheSize: *cacheSize,
			Admission: admission,
		})
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.handler(),
		// Slow-client protection: a stalled reader or writer must not pin
		// a connection (and its engine work) forever. The write timeout is
		// sized for batch requests, which compute before responding; the
		// header timeout and size cap shut out slowloris-style clients
		// before a request body is ever read.
		ReadTimeout:       *readTO,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *writeTO,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}

	g := srv.engine.Graph()
	fmt.Printf("relserver: serving %s (%d nodes, %d edges) on %s\n",
		g.Name(), g.NumNodes(), g.NumEdges(), *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	srv.ready.Store(true)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		// The listener failed outright (e.g. address in use).
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		// Flip readiness before closing the listener, so /readyz tells
		// load balancers to stop routing while in-flight work drains.
		srv.ready.Store(false)
		log.Printf("relserver: signal received, draining in-flight requests (up to %s)", *grace)
		shCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Fatalf("relserver: shutdown: %v", err)
		}
		if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("relserver: serve: %v", err)
		}
		log.Print("relserver: drained, bye")
	}
}

// attachSidecar wires the snapshot's sidecar mutation log into the
// server: an existing sidecar is replayed — its first batch must chain
// from the snapshot's manifest epoch — catching the engine up from the
// snapshot state to the live epoch, and the file is then held open for
// append so future /v1/mutate batches persist across restarts. A missing
// sidecar is created (header only).
func attachSidecar(srv *server, snapPath string) error {
	path := relcomp.MutationSidecarPath(snapPath)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("relserver: sidecar %s: %v", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("relserver: sidecar %s: %v", path, err)
	}
	if info.Size() == 0 {
		if err := relcomp.WriteMutationSidecarHeader(f); err != nil {
			f.Close()
			return fmt.Errorf("relserver: sidecar %s: %v", path, err)
		}
	} else {
		batches, err := relcomp.ReadMutationSidecar(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("relserver: sidecar %s: %v", path, err)
		}
		if len(batches) > 0 {
			if want := srv.engine.Epoch() + 1; batches[0].Epoch != want {
				f.Close()
				return fmt.Errorf("relserver: sidecar %s starts at epoch %d, which does not chain from snapshot epoch %d",
					path, batches[0].Epoch, srv.engine.Epoch())
			}
			for _, b := range batches {
				epoch, err := srv.engine.Apply(context.Background(), b.Muts)
				if err != nil {
					f.Close()
					return fmt.Errorf("relserver: sidecar %s replay of epoch %d: %v", path, b.Epoch, err)
				}
				if epoch != b.Epoch {
					f.Close()
					return fmt.Errorf("relserver: sidecar %s replay desynced: applied epoch %d, recorded %d", path, epoch, b.Epoch)
				}
			}
			log.Printf("relserver: replayed %d sidecar batches to epoch %d", len(batches), srv.engine.Epoch())
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return fmt.Errorf("relserver: sidecar %s: %v", path, err)
		}
	}
	srv.sidecar = f
	return nil
}

// openVerifiedSnapshot opens and verifies the snapshot, preferring the
// memory-mapped fast path. When the mapped image fails to open or verify
// with a corruption error, the server degrades instead of crashing: it
// re-reads the file onto the heap, where every section is
// checksum-verified as its structure is rebuilt, and logs a warning. Only
// when the heap rebuild fails too — the file really is damaged — does
// startup fail.
func openVerifiedSnapshot(path string, cfg relcomp.EngineConfig) (*relcomp.Snapshot, *relcomp.Engine, error) {
	snap, verr := relcomp.OpenSnapshot(path)
	if verr == nil {
		if verr = snap.Verify(); verr == nil {
			eng, err := relcomp.NewEngineFromSnapshot(snap, cfg)
			if err != nil {
				snap.Close()
				return nil, nil, err
			}
			return snap, eng, nil
		}
		snap.Close()
	}
	if !errors.Is(verr, relcomp.ErrSnapshotCorrupt) {
		return nil, nil, verr
	}
	log.Printf("relserver: WARNING: snapshot %s failed verification (%v); degrading to a heap rebuild", path, verr)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("relserver: snapshot heap rebuild: %v (mapped open failed: %v)", err, verr)
	}
	defer f.Close()
	heapSnap, err := relcomp.ReadSnapshot(f)
	if err != nil {
		return nil, nil, fmt.Errorf("relserver: snapshot heap rebuild failed: %v (mapped: %v)", err, verr)
	}
	eng, err := relcomp.NewEngineFromSnapshot(heapSnap, cfg)
	if err != nil {
		return nil, nil, err
	}
	return heapSnap, eng, nil
}
