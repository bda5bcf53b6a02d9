// Command amosd serves a partdiff active database over HTTP: statement
// execution, snapshot queries, the live event stream, and the full
// monitoring surface.
//
//	POST /v1/exec     execute AMOSQL statements (body: source text, or
//	                  JSON {"src": "..."}); responds with one JSON result
//	                  per statement
//	GET  /v1/query    run a single select (?q=...) against an MVCC
//	                  snapshot, without waiting on writers
//	GET  /v1/events   Server-Sent Events stream of structured events
//	                  (?types=rule_firing,txn filters; Last-Event-ID or
//	                  ?last_event_id resumes from the event ring)
//	GET  /healthz     liveness (503 once the database is poisoned)
//	GET  /readyz      readiness (503 while recovering or with a
//	                  poisoned write-ahead log)
//	GET  /metrics     Prometheus text format (?prefix= filters)
//	GET  /debug/bundle    on-demand flight-recorder diagnostics bundle (JSON)
//	GET  /debug/bundles/  bundles written to disk: JSON list, /<name>/<file>
//	GET  /debug/...   expvar JSON and Go runtime profiles
//
// With -data dir the database is durable: it recovers from dir before
// the listener opens (readiness reflects this) and logs every committed
// transaction under the -sync policy. -slow-commit d emits a system
// event with per-phase timings for commits slower than d. -flightrec
// dir arms the always-on flight recorder: anomaly triggers freeze its
// in-memory rings and write self-contained diagnostics bundles to dir.
//
// Quick start:
//
//	amosd -addr localhost:8080 &
//	curl -N localhost:8080/v1/events &
//	curl -d 'create type item;' localhost:8080/v1/exec
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"partdiff"
	"partdiff/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr, nil))
}

// run is the testable main: it parses args, opens the database, serves
// until the process is signalled, and returns the exit code. When ready
// is non-nil, the bound address is sent on it once the listener is
// accepting (tests use this with -addr 127.0.0.1:0).
func run(args []string, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("amosd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8080", "listen address")
	dataDir := fs.String("data", "", "durable data directory (recover on start, log every commit)")
	modeFlag := fs.String("mode", "hybrid", "monitoring mode: hybrid (differencing or recomputation, chosen per view per wave), incremental (differencing only), naive")
	syncFlag := fs.String("sync", "always", "WAL fsync policy with -data: always, group, none")
	slow := fs.Duration("slow-commit", 0, "emit a system event for commits slower than this (0 disables)")
	flightDir := fs.String("flightrec", "", "arm the flight recorder; diagnostics bundles land in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var mode partdiff.Mode
	switch *modeFlag {
	case "incremental":
		mode = partdiff.Incremental
	case "naive":
		mode = partdiff.Naive
	case "hybrid":
		mode = partdiff.Hybrid
	default:
		fmt.Fprintf(stderr, "unknown mode %q\n", *modeFlag)
		return 2
	}
	opts := []partdiff.Option{partdiff.WithMode(mode)}
	if *slow > 0 {
		opts = append(opts, partdiff.WithSlowCommitThreshold(*slow))
	}
	if *flightDir != "" {
		opts = append(opts, partdiff.WithFlightRecorder(*flightDir))
	}

	var db *partdiff.DB
	if *dataDir != "" {
		var policy partdiff.SyncPolicy
		switch *syncFlag {
		case "always":
			policy = partdiff.SyncAlways
		case "group":
			policy = partdiff.SyncGrouped
		case "none":
			policy = partdiff.SyncNone
		default:
			fmt.Fprintf(stderr, "unknown sync policy %q\n", *syncFlag)
			return 2
		}
		opts = append(opts, partdiff.WithSyncPolicy(policy))
		var err error
		if db, err = partdiff.OpenDir(*dataDir, opts...); err != nil {
			fmt.Fprintln(stderr, "open:", err)
			return 1
		}
	} else {
		db = partdiff.Open(opts...)
	}
	defer db.Close()

	// Arm the bus before the listener opens so the event ring records
	// history from the first commit — a subscriber connecting later can
	// still resume across its own disconnects.
	db.EventBus().Arm()

	// Register the shutdown signals before announcing readiness, so a
	// signal sent the moment the address is known is never fatal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "listen:", err)
		return 1
	}
	srv := &http.Server{Handler: newMux(db)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "amosd serving on http://%s (%s monitoring)\n", ln.Addr(), mode)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case <-ctx.Done():
	case err := <-done:
		fmt.Fprintln(stderr, "serve:", err)
		return 1
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(stderr, "amosd stopped")
	return 0
}

// newMux builds the full serving surface: the /v1 API plus the
// monitoring handler (metrics, health, pprof) as the fallback.
func newMux(db *partdiff.DB) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/exec", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST required")
			return
		}
		src, err := readSource(req)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		results, err := db.ExecContext(req.Context(), src)
		writeResults(w, results, err)
	})
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query().Get("q")
		if q == "" {
			httpError(w, http.StatusBadRequest, "missing ?q= query text")
			return
		}
		r, err := db.QueryContext(req.Context(), q)
		if err != nil {
			writeResults(w, nil, err)
			return
		}
		writeResults(w, []partdiff.Result{*r}, nil)
	})
	mux.Handle("/v1/events", obs.SSEHandler(db.EventBus()))
	mux.Handle("/", db.MonitorHandler())
	return mux
}

// apiResult is the JSON rendering of one statement result.
type apiResult struct {
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Message string     `json:"message,omitempty"`
}

// apiResponse is the /v1/exec and /v1/query response body.
type apiResponse struct {
	Results []apiResult `json:"results,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// readSource extracts the AMOSQL source from an exec request: either a
// JSON {"src": "..."} document or the raw body text.
func readSource(req *http.Request) (string, error) {
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if ct := req.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		var doc struct {
			Src string `json:"src"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return "", fmt.Errorf("bad JSON body: %w", err)
		}
		return doc.Src, nil
	}
	return string(body), nil
}

// writeResults renders statement results (and/or an execution error) as
// JSON. Partial results before an error are included alongside it.
func writeResults(w http.ResponseWriter, results []partdiff.Result, err error) {
	resp := apiResponse{}
	for _, r := range results {
		ar := apiResult{Columns: r.Columns, Message: r.Message}
		for _, t := range r.Tuples {
			row := make([]string, len(t))
			for i, v := range t {
				row[i] = v.String()
			}
			ar.Rows = append(ar.Rows, row)
		}
		resp.Results = append(resp.Results, ar)
	}
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		resp.Error = err.Error()
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(apiResponse{Error: msg})
}
