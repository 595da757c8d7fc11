// Command lsdbd serves loosely structured databases over HTTP with a
// JSON API, so the browsing styles of the paper are usable from any
// client. One process hosts any number of isolated databases
// ("tenants"); a request selects its database with the ?db= query
// parameter and falls back to the tenant named "default".
//
//	POST   /facts      {"s":"JOHN","r":"in","t":"EMPLOYEE"}  assert
//	DELETE /facts?s=&r=&t=                                   retract
//	GET    /query?q=(?x, in, EMPLOYEE)                       standard query
//	GET    /probe?q=...                                      query + retraction
//	GET    /navigate?entity=JOHN                             neighborhood
//	GET    /between?src=LEOPOLD&tgt=MOZART                   associations
//	GET    /try?entity=MOZART                                try(e)
//	GET    /derive?s=JOHN&r=EARNS&t=SALARY                   proof tree
//	GET    /check                                            contradictions
//	POST   /batch      {"ops":[...]}                         batched reads, one snapshot
//	GET    /stats                                            sizes + durability counters
//	GET    /metrics                                          Prometheus text exposition
//	GET    /healthz                                          liveness + log health
//	GET    /tenants                                          hosted databases + quotas
//
// /derive and /query accept ?trace=1, which attaches a structured
// per-query trace to the response. /derive additionally accepts
// ?depth=N to bound the traced on-demand derivation; a tenant's
// -max-depth quota caps N.
//
// With -serve-wal the daemon additionally acts as a replication
// primary: GET /repl/wal streams durable log records and GET
// /repl/snapshot serves a bootstrap snapshot, and log compaction
// waits (up to -repl-lag-budget records) for connected followers.
// With -replica-of URL the daemon is a read replica instead: each
// tenant tails the same-named tenant on the primary into one log at
// <dir>/<name>.log (a snapshot of its last bootstrap followed by the
// records applied since), writes are rejected with 403, and any read
// may carry ?min_lsn=L to demand read-your-writes — the replica waits
// up to -repl-wait for its applied watermark to reach L, then answers
// 412 with its current LSN. Mutations on the primary return their
// commit LSN for use as min_lsn.
//
// Usage: lsdbd [-addr :8080] [-tenants default] [-data dir]
// [-log db.log] [-sync always|never|250ms] [-checkpoint N]
// [-snapshot path] [-max-inflight N] [-max-depth N]
// [-cache-entries N] [-serve-wal] [-replica-of URL]
// [-repl-lag-budget N] [-repl-wait D] [-pprof] [factfile ...]
//
// -tenants names the hosted databases (comma-separated). With -data,
// each tenant keeps its durability log at <dir>/<name>.log and its
// checkpoint snapshot at <dir>/<name>.snapshot; -log/-snapshot name
// the files directly and therefore require a single tenant. The
// -max-inflight, -max-depth and -cache-entries quotas apply uniformly
// to every tenant (0 = unlimited). Positional fact files are loaded
// into every tenant.
//
// A mutation is acknowledged (HTTP 200) only once it has reached the
// sync policy's durability point; with -sync always a crash after the
// response can never lose the write. On SIGINT/SIGTERM the server
// drains in-flight requests, then syncs and closes every tenant's log.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	lsdb "repro"
	"repro/internal/factfile"
	"repro/internal/repl"
	"repro/internal/serve"
)

// parseSyncPolicy maps the -sync flag to a policy: "always", "never",
// or a Go duration for interval syncing.
func parseSyncPolicy(s string) (lsdb.SyncPolicy, error) {
	switch s {
	case "", "always":
		return lsdb.SyncAlways, nil
	case "never":
		return lsdb.SyncNever, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return lsdb.SyncPolicy{}, fmt.Errorf("-sync must be always, never or a duration: %v", err)
	}
	if d <= 0 {
		return lsdb.SyncPolicy{}, fmt.Errorf("-sync interval must be positive, got %s", s)
	}
	return lsdb.SyncInterval(d), nil
}

// parseTenants splits the -tenants flag into trimmed, non-empty,
// unique names.
func parseTenants(s string) ([]string, error) {
	var names []string
	seen := make(map[string]bool)
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if seen[name] {
			return nil, fmt.Errorf("-tenants lists %q twice", name)
		}
		seen[name] = true
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-tenants must name at least one database")
	}
	return names, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	tenants := flag.String("tenants", serve.DefaultTenant, "comma-separated database names to host")
	dataDir := flag.String("data", "", "directory for per-tenant durability logs (<dir>/<name>.log)")
	logPath := flag.String("log", "", "append-only durability log (single tenant only)")
	syncFlag := flag.String("sync", "always", "log sync policy: always, never, or a flush interval like 250ms")
	checkpoint := flag.Int("checkpoint", 0, "compact each log automatically once it holds more than this many records and at least twice as many records as live facts, so an insert-only log is never compacted (0 disables)")
	snapshot := flag.String("snapshot", "", "path that each automatic checkpoint replaces with a snapshot: a log of the live facts at the checkpoint's LSN, which -log can open (single tenant only)")
	maxInflight := flag.Int("max-inflight", 0, "per-tenant cap on concurrent in-flight requests (0 = unlimited)")
	maxDepth := flag.Int("max-depth", 0, "per-tenant cap on requested inference depth (0 = unlimited)")
	cacheEntries := flag.Int("cache-entries", 0, "per-tenant subgoal cache entry limit (0 = engine default)")
	serveWAL := flag.Bool("serve-wal", false, "serve the durability log to replicas on /repl/wal and /repl/snapshot (requires a log)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary daemon at this base URL (requires -data)")
	replLagBudget := flag.Uint64("repl-lag-budget", 0, "records a lagging follower may hold back log compaction (0 = default 8192)")
	replWait := flag.Duration("repl-wait", 0, "replica: max wait for ?min_lsn= reads before answering 412 (0 = default 2s)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	policy, err := parseSyncPolicy(*syncFlag)
	if err != nil {
		log.Fatal(err)
	}
	names, err := parseTenants(*tenants)
	if err != nil {
		log.Fatal(err)
	}
	if (*logPath != "" || *snapshot != "") && len(names) > 1 {
		log.Fatal("-log and -snapshot name a single file; use -data with multiple tenants")
	}
	if *logPath != "" && *dataDir != "" {
		log.Fatal("-log and -data are mutually exclusive")
	}
	if *serveWAL && *replicaOf != "" {
		log.Fatal("-serve-wal and -replica-of are mutually exclusive: a daemon is a primary or a replica, not both")
	}
	if *serveWAL && *logPath == "" && *dataDir == "" {
		log.Fatal("-serve-wal requires a durability log: set -data or -log")
	}
	if *replicaOf != "" {
		if *dataDir == "" {
			log.Fatal("-replica-of requires -data for the replica's log (<dir>/<name>.log)")
		}
		if *logPath != "" || *snapshot != "" || *checkpoint > 0 {
			log.Fatal("-replica-of manages its own log; -log, -snapshot and -checkpoint do not apply")
		}
		if flag.NArg() > 0 {
			log.Fatal("a replica loads facts from its primary, not from fact files")
		}
	}

	quotas := serve.Quotas{
		MaxInflight:  *maxInflight,
		MaxDepth:     *maxDepth,
		CacheEntries: *cacheEntries,
	}
	srv := serve.New()
	srv.SetPprof(*pprofFlag)
	var stored int
	var followers []*repl.Follower
	for _, name := range names {
		opts := lsdb.Options{
			SyncPolicy:      policy,
			CheckpointEvery: *checkpoint,
		}
		switch {
		case *replicaOf != "":
			// A replica's durability is one log per tenant, attached
			// and managed by the follower.
		case *dataDir != "":
			opts.LogPath = filepath.Join(*dataDir, name+".log")
			if *checkpoint > 0 {
				opts.CheckpointSnapshot = filepath.Join(*dataDir, name+".snapshot")
			}
		case *logPath != "":
			opts.LogPath = *logPath
			opts.CheckpointSnapshot = *snapshot
		}
		db, err := lsdb.Open(opts)
		if err != nil {
			log.Fatalf("tenant %s: %v", name, err)
		}
		if st := db.LogStats(); st.TruncRecs > 0 {
			log.Printf("tenant %s: log %s had a torn tail: dropped %d partial record(s), %d byte(s); resuming at LSN %d",
				name, opts.LogPath, st.TruncRecs, st.TruncBytes, db.LSN())
		}
		for _, path := range flag.Args() {
			if _, err := factfile.LoadFile(db, path); err != nil {
				log.Fatalf("tenant %s: %s: %v", name, path, err)
			}
		}
		tenant, err := srv.AddTenant(name, db, quotas)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case *serveWAL:
			tenant.SetPrimary(repl.NewPrimary(db, repl.PrimaryOptions{
				LagBudget: *replLagBudget,
			}))
		case *replicaOf != "":
			fl, err := repl.NewFollower(db, repl.Config{
				Primary: *replicaOf,
				Tenant:  name,
				Dir:     *dataDir,
				Name:    name,
				Lock:    tenant.SnapLocker(),
			})
			if err != nil {
				log.Fatalf("tenant %s: %v", name, err)
			}
			if err := fl.Start(); err != nil {
				log.Fatalf("tenant %s: bootstrap from %s: %v", name, *replicaOf, err)
			}
			tenant.SetFollower(fl, *replWait)
			followers = append(followers, fl)
		}
		stored += db.Len()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	role := "standalone"
	switch {
	case *serveWAL:
		role = "primary"
	case *replicaOf != "":
		role = "replica of " + *replicaOf
	}

	done := make(chan error, 1)
	go func() {
		log.Printf("lsdbd listening on %s (%d tenants, %d facts, sync=%s, %s)",
			*addr, len(names), stored, policy, role)
		err := httpSrv.ListenAndServe()
		if err == http.ErrServerClosed {
			err = nil
		}
		done <- err
	}()

	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		log.Print("lsdbd shutting down: draining requests")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			log.Printf("lsdbd drain: %v", err)
		}
	}
	// Stop followers first: each Stop syncs and detaches its log,
	// so srv.Close below finds nothing left to flush for replicas.
	for _, fl := range followers {
		fl.Stop()
	}
	if err := srv.Sync(); err != nil {
		log.Printf("lsdbd final sync: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("lsdbd close logs: %v", err)
		os.Exit(1)
	}
}
