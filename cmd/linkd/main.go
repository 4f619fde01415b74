// Command linkd serves the online-inference module (§3.2.2) over HTTP:
//
//	linkd [-addr :8080] [-seed 1] [-users 800] [-data DIR] [-pprof] [-request-timeout 30s]
//
// Endpoints:
//
//	GET  /healthz
//	GET  /v1/link?user=U&mention=M[&now=T]      score all candidates
//	POST /v1/link/batch                         score up to 256 mention queries concurrently
//	GET  /v1/topk?user=U&mention=M&k=K[&now=T]  top-k above the β+γ threshold
//	GET  /v1/search?user=U&q=QUERY&k=K          personalized microblog search
//	POST /v1/tweet                              NER + link (+feedback, applied and journaled) a raw tweet
//	POST /v1/confirm                            interactive feedback: confirm a link (applied and journaled)
//	POST /v1/ingest/tweet                       enqueue a tweet on the firehose pipeline
//	POST /v1/ingest/follow                      enqueue a follow edge on the firehose pipeline
//	GET  /v1/stats
//	POST /v1/admin/snapshot                     commit a durable snapshot to the -data directory
//	GET  /v1/admin/status                       persistence + ingest freshness (staleness, swaps, WAL)
//	GET  /metrics                               Prometheus text exposition
//	GET  /debug/pprof/*                         live profiling (opt-in via -pprof)
//
// The reachability substrate is the streaming 2-hop arena, the one that
// takes follow edges and the one a data directory persists, and the
// ingest pipeline is always attached: it is the server's one write path.
// With -data DIR the server is durable: boot warm-restarts from the
// directory's snapshot + WAL when one exists (the directory's world
// overrides -seed/-users) and commits an initial snapshot otherwise;
// every applied write tees into the WAL. A confirm or a fed-back tweet is
// answered only after its record is in the WAL, and kill -9 loses at most
// the firehose events not yet applied.
//
// Errors use the structured envelope documented in internal/httpapi. The
// -request-timeout flag bounds each request with a context deadline that
// the scoring pipeline observes, so slow queries return a
// deadline_exceeded envelope instead of holding a connection; SIGINT or
// SIGTERM drains in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"microlink"
	"microlink/internal/httpapi"
	"microlink/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "world seed")
	users := flag.Int("users", 800, "world size")
	ingestQueue := flag.Int("ingest-queue", 0, "ingest queue capacity (0 selects the default)")
	rebuildAfter := flag.Int("rebuild-after", 0, "rebuild the frozen reach arena after this many new follow edges (0 selects the default)")
	rebuildEvery := flag.Duration("rebuild-interval", 0, "additionally rebuild on this interval when stale (0 disables)")
	dataDir := flag.String("data", "", "data directory for durable snapshots + WAL; warm-restarts from it when it holds a snapshot")
	fsyncOn := flag.Bool("fsync", false, "fsync the WAL on every append (durable against power loss, slower)")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/* (CPU, heap, goroutine profiles)")
	readTimeout := flag.Duration("read-timeout", 10*time.Second, "max time to read a request")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "max time to write a response")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
	reqTimeout := flag.Duration("request-timeout", 0, "per-request context deadline observed by the scoring pipeline (0 disables)")
	shutdownGrace := flag.Duration("shutdown-grace", 5*time.Second, "drain window for in-flight requests on SIGINT/SIGTERM")
	workers := flag.Int("workers", 0, "LinkBatch worker pool size (0 selects GOMAXPROCS)")
	flag.Parse()

	if err := validateFlags(*users, *workers, *readTimeout, *writeTimeout, *idleTimeout, *reqTimeout, *shutdownGrace); err != nil {
		log.Fatalf("linkd: %v", err)
	}
	if err := validateIngestFlags(*ingestQueue, *rebuildEvery); err != nil {
		log.Fatalf("linkd: %v", err)
	}

	opts := microlink.Options{Reach: microlink.ReachStreaming, Fsync: *fsyncOn}
	opts.Linker.Batch.Workers = *workers

	// Warm restart: when -data holds a committed snapshot, the whole
	// system — world, graph, complemented KB, live tweets, frozen reach
	// arena — reloads from segments and the WAL suffix replays on top.
	// The directory's world and hop bound win over -seed/-users.
	var sys *microlink.System
	if *dataDir != "" {
		s, rep, err := microlink.Open(*dataDir, opts)
		switch {
		case err == nil:
			sys = s
			log.Printf("linkd: warm restart from %s: snapshot seq %d, segment load %v (world leg %v beside arena leg %v) + WAL replay %v (%d records, torn tail: %v)",
				*dataDir, rep.Seq, rep.Load.Round(time.Millisecond), rep.World.Round(time.Millisecond),
				rep.Reach.Round(time.Millisecond), rep.Replay.Round(time.Millisecond), rep.WALRecords, rep.TornTail)
		case errors.Is(err, microlink.ErrNoSnapshot):
			log.Printf("linkd: %s holds no snapshot; cold start", *dataDir)
		default:
			log.Fatalf("linkd: open %s: %v", *dataDir, err)
		}
	}
	if sys == nil {
		log.Printf("linkd: generating world (seed=%d users=%d)…", *seed, *users)
		world := microlink.Generate(microlink.WorldParams{Seed: *seed, Users: *users})
		log.Printf("linkd: building linking stack…")
		sys = microlink.Build(world, opts)
		if *dataDir != "" {
			info, err := sys.Snapshot(*dataDir)
			if err != nil {
				log.Fatalf("linkd: initial snapshot: %v", err)
			}
			log.Printf("linkd: initial snapshot seq %d committed to %s in %v",
				info.Seq, *dataDir, info.Elapsed.Round(time.Millisecond))
		}
	}
	log.Print("linkd: ", sys.Describe())

	pipe, err := sys.StartIngest(microlink.IngestConfig{
		Queue:             *ingestQueue,
		RebuildAfterEdges: *rebuildAfter,
		RebuildInterval:   *rebuildEvery,
	})
	if err != nil {
		log.Fatalf("linkd: start ingest: %v", err)
	}

	// Runtime health gauges (goroutines, heap, GC) sampled into /metrics.
	collector := obs.CollectRuntime(sys.Metrics, "microlink", 10*time.Second)

	root := http.NewServeMux()
	root.Handle("/", httpapi.New(sys))
	if *pprofOn {
		root.HandleFunc("GET /debug/pprof/", pprof.Index)
		root.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		root.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		log.Print("linkd: pprof enabled at /debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           withRequestTimeout(*reqTimeout, root),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-done
		log.Print("linkd: shutting down…")
		collector.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("linkd: shutdown: %v", err)
		}
		// Intake is fed by handlers, so stop the pipeline only after the
		// listener has drained; Close then applies everything buffered.
		if err := pipe.Close(ctx); err != nil {
			log.Printf("linkd: ingest drain: %v", err)
		} else {
			st := pipe.Stats()
			log.Printf("linkd: ingest drained (%d tweets, %d follows, %d feedback, %d rebuilds)",
				st.AppliedTweets, st.AppliedFollows, st.AppliedFeedback, st.Rebuilds)
		}
		// The WAL closes last: every drained event is already teed, so
		// this is a flush, not a data-loss window.
		if err := sys.ClosePersist(); err != nil {
			log.Printf("linkd: close persistence: %v", err)
		}
	}()

	log.Printf("linkd: listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("linkd: %v", err)
	}
	<-drained // don't exit before in-flight requests finish draining
	log.Print("linkd: bye")
}

// validateFlags rejects flag values that would misconfigure the server
// before any world generation happens: a non-positive user count
// generates an empty world every request 404s against, a negative
// worker count is always a typo (0 means GOMAXPROCS), and non-positive
// connection timeouts silently disable protection the defaults exist to
// provide.
func validateFlags(users, workers int, readTimeout, writeTimeout, idleTimeout, reqTimeout, shutdownGrace time.Duration) error {
	if users <= 0 {
		return fmt.Errorf("-users must be positive, got %d", users)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be positive or 0 for GOMAXPROCS, got %d", workers)
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"-read-timeout", readTimeout},
		{"-write-timeout", writeTimeout},
		{"-idle-timeout", idleTimeout},
		{"-shutdown-grace", shutdownGrace},
	} {
		if f.d <= 0 {
			return fmt.Errorf("%s must be positive, got %v", f.name, f.d)
		}
	}
	if reqTimeout < 0 {
		return fmt.Errorf("-request-timeout must be positive or 0 to disable, got %v", reqTimeout)
	}
	return nil
}

// validateIngestFlags rejects nonsense pipeline tuning. A negative
// -rebuild-after is allowed: it disables the edge-count trigger, leaving
// only the interval (or manual) rebuilds.
func validateIngestFlags(queue int, interval time.Duration) error {
	if queue < 0 {
		return fmt.Errorf("-ingest-queue must be positive or 0 for the default, got %d", queue)
	}
	if interval < 0 {
		return fmt.Errorf("-rebuild-interval must be positive or 0 to disable, got %v", interval)
	}
	return nil
}

// withRequestTimeout bounds every request with a context deadline. The
// httpapi handlers propagate it into the scoring pipeline, so an
// over-budget query gets a deadline_exceeded error envelope (or per-item
// errors on the batch endpoint) instead of tying up the connection.
func withRequestTimeout(d time.Duration, h http.Handler) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}
