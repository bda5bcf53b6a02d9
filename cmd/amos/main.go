// Command amos is an interactive AMOSQL shell over the partdiff active
// DBMS. Statements end with ';' and may span lines. Meta commands:
//
//	\mode                 show the monitoring mode
//	\stats                show monitor statistics
//	\metrics [prefix]     dump metrics in Prometheus text format (prefix filters,
//	                      e.g. \metrics propnet)
//	\profile on|off       turn the propagation profiler on or off
//	\profile report [k]   report the k most expensive differentials (default 10)
//	\hybrid on|off        switch between the hybrid monitor (on: per view and wave,
//	                      differencing or recomputation by predicted cost) and
//	                      the incremental one (off: differencing only)
//	\hybrid report        per-view strategies, counts and recent strategy switches
//	\counting on|off      counting maintenance of derivation counts
//	\trace file.json      start a structured trace capture (Chrome trace_event)
//	\trace stop           stop the capture and write the JSON file
//	\explain              show why rules triggered in the last commit
//	\net                  show the propagation network levels
//	\dot [heat]           Graphviz export (heat: profiler-annotated costs)
//	\lint                 re-run the static analyzer over all definitions
//	\flightrec on [dir]   arm the flight recorder (bundles land in dir, or a
//	                      partdiff-bundles directory under the system temp dir)
//	\flightrec off        disarm the recorder (rings and bundles kept)
//	\flightrec dump       write an on-demand diagnostics bundle now
//	\flightrec report     recorder status: triggers seen, bundles written
//	\checkpoint           snapshot the data directory and truncate the log (-data only)
//	\save dir             write a standalone snapshot of the database into dir
//	\subscribe [types]    stream live events to the terminal (comma-separated
//	                      filter, e.g. \subscribe rule_firing,txn); \subscribe stop
//	\quit
//
// A demo `order` procedure is predefined (it prints the order). Run a
// script: amos -f script.amosql. Statically analyze a script without
// running its rule actions: amos -lint script.amosql (exits 1 if any
// error-severity diagnostics are reported).
//
// With -data dir the database is durable: it recovers from dir on
// startup (snapshot + write-ahead log replay) and logs every committed
// transaction before acknowledging it. -sync selects the fsync policy
// (always, group, none — none survives a process kill but not an OS
// crash).
//
// With -monitor addr (e.g. -monitor localhost:6060) the shell serves a
// live monitoring endpoint: Prometheus text at /metrics, expvar JSON at
// /debug/vars, and Go runtime profiles at /debug/pprof/ (usable with
// `go tool pprof http://addr/debug/pprof/profile`).
//
// With -flightrec dir the flight recorder is armed from startup:
// in-memory rings capture recent waves, commits, fsyncs and events, and
// anomaly triggers (slow commits, fsync stalls, corruption, …) write
// self-contained diagnostics bundles into dir. \flightrec controls it
// at runtime.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"partdiff"
	"partdiff/internal/obs"
)

func main() {
	modeFlag := flag.String("mode", "hybrid", "monitoring mode: hybrid (differencing or recomputation, chosen per view per wave), incremental (differencing only), naive")
	file := flag.String("f", "", "execute a script file and exit")
	lintFile := flag.String("lint", "", "statically analyze a script file and exit (actions are not run)")
	monitor := flag.String("monitor", "", "serve live metrics over HTTP on this address (e.g. localhost:6060)")
	dataDir := flag.String("data", "", "durable data directory (recover on start, write-ahead log every commit)")
	syncFlag := flag.String("sync", "always", "WAL fsync policy with -data: always, group, none")
	flightDir := flag.String("flightrec", "", "arm the flight recorder; diagnostics bundles land in this directory")
	flag.Parse()

	var mode partdiff.Mode
	switch *modeFlag {
	case "incremental":
		mode = partdiff.Incremental
	case "naive":
		mode = partdiff.Naive
	case "hybrid":
		mode = partdiff.Hybrid
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *modeFlag)
		os.Exit(2)
	}
	if *lintFile != "" {
		os.Exit(lint(mode, *lintFile))
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
			fmt.Fprintf(os.Stderr, "unknown sync policy %q\n", *syncFlag)
			os.Exit(2)
		}
		var err error
		db, err = partdiff.OpenDir(*dataDir,
			partdiff.WithMode(mode),
			partdiff.WithSyncPolicy(policy),
			partdiff.WithProcedure("order", orderProc))
		if err != nil {
			fmt.Fprintln(os.Stderr, "open:", err)
			os.Exit(1)
		}
		defer db.Close()
	} else {
		db = partdiff.Open(partdiff.WithMode(mode))
		db.RegisterProcedure("order", orderProc)
	}
	db.SetOutput(os.Stdout)
	if *flightDir != "" {
		rec := db.FlightRecorder()
		rec.SetDir(*flightDir)
		rec.Arm()
		fmt.Fprintf(os.Stderr, "flight recorder armed, bundles in %s\n", *flightDir)
	}
	if *monitor != "" {
		srv, err := db.ServeMonitor(*monitor)
		if err != nil {
			fmt.Fprintln(os.Stderr, "monitor:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "monitoring on http://%s/metrics\n", srv.Addr())
	}
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := exec(db, string(src)); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("amos shell (%s monitoring) — statements end with ';', \\quit to exit\n", mode)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "amos> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if meta(db, trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt = "  ... "
			continue
		}
		src := buf.String()
		buf.Reset()
		prompt = "amos> "
		if err := exec(db, src); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// orderProc is the demo `order` procedure (it prints the order).
func orderProc(args []partdiff.Value) error {
	parts := make([]string, len(args))
	for i, v := range args {
		parts[i] = v.String()
	}
	fmt.Printf(">> order(%s)\n", strings.Join(parts, ", "))
	return nil
}

// activeTrace is the shell's in-progress \trace capture and the file it
// will be written to on \trace stop.
var (
	activeTrace     *partdiff.Trace
	activeTracePath string
)

// activeSub is the shell's live \subscribe stream; activeSubDone closes
// when its printer goroutine has drained.
var (
	activeSub     *partdiff.Subscription
	activeSubDone chan struct{}
)

// meta handles backslash commands; it reports whether to quit.
func meta(db *partdiff.DB, cmd string) bool {
	switch strings.Fields(cmd)[0] {
	case "\\quit", "\\q":
		return true
	case "\\metrics":
		words := strings.Fields(cmd)
		var err error
		if len(words) > 1 {
			err = db.WriteMetricsPrefix(os.Stdout, words[1])
		} else {
			err = db.WriteMetrics(os.Stdout)
		}
		if err != nil {
			fmt.Println("error:", err)
		}
	case "\\profile":
		words := strings.Fields(cmd)
		switch {
		case len(words) < 2:
			state := "off"
			if db.Session().Profiling() {
				state = "on"
			}
			fmt.Printf("profiling is %s; usage: \\profile on|off|report [topK]\n", state)
		case words[1] == "on":
			db.SetProfiling(true)
			fmt.Println("propagation profiling on (\\profile report to inspect)")
		case words[1] == "off":
			db.SetProfiling(false)
			fmt.Println("propagation profiling off (accumulated profile kept)")
		case words[1] == "report":
			topK := 10
			if len(words) > 2 {
				if k, err := strconv.Atoi(words[2]); err == nil {
					topK = k
				} else {
					fmt.Printf("bad topK %q; usage: \\profile report [topK]\n", words[2])
					break
				}
			}
			if err := db.ProfileReport(os.Stdout, topK); err != nil {
				fmt.Println("error:", err)
			}
		default:
			fmt.Println("usage: \\profile on|off|report [topK]")
		}
	case "\\hybrid":
		words := strings.Fields(cmd)
		switch {
		case len(words) < 2:
			fmt.Printf("counting is %s, hybrid is %s; usage: \\hybrid on|off|report\n",
				onOff(db.Counting()), onOff(db.Hybrid()))
		case words[1] == "on" || words[1] == "off":
			db.SetHybrid(words[1] == "on")
			fmt.Printf("monitoring mode: %s\n", db.Session().Rules().Mode())
		case words[1] == "report":
			if err := db.HybridReport(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
		default:
			fmt.Println("usage: \\hybrid on|off|report")
		}
	case "\\counting":
		words := strings.Fields(cmd)
		if len(words) == 2 && (words[1] == "on" || words[1] == "off") {
			db.SetCounting(words[1] == "on")
		}
		fmt.Printf("counting maintenance is %s; usage: \\counting on|off\n", onOff(db.Counting()))
	case "\\flightrec":
		words := strings.Fields(cmd)
		rec := db.FlightRecorder()
		switch {
		case len(words) < 2:
			state := "disarmed"
			if rec.Armed() {
				state = "armed"
			}
			fmt.Printf("flight recorder is %s; usage: \\flightrec on [dir]|off|dump|report\n", state)
		case words[1] == "on":
			dir := filepath.Join(os.TempDir(), "partdiff-bundles")
			if len(words) > 2 {
				dir = words[2]
			}
			rec.SetDir(dir)
			rec.Arm()
			fmt.Printf("flight recorder armed, bundles in %s\n", dir)
		case words[1] == "off":
			rec.Disarm()
			fmt.Println("flight recorder disarmed (rings and bundles kept)")
		case words[1] == "dump":
			path, err := rec.Dump()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("diagnostics bundle written to %s\n", path)
		case words[1] == "report":
			if err := rec.WriteReport(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
		default:
			fmt.Println("usage: \\flightrec on [dir]|off|dump|report")
		}
	case "\\trace":
		words := strings.Fields(cmd)
		switch {
		case len(words) < 2:
			fmt.Println("usage: \\trace file.json to start, \\trace stop to write the file")
		case words[1] == "stop":
			if activeTrace == nil {
				fmt.Println("no trace capture active")
				break
			}
			activeTrace.Stop()
			f, err := os.Create(activeTracePath)
			if err == nil {
				err = activeTrace.Export(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("wrote %d event(s) to %s (load in chrome://tracing or ui.perfetto.dev)\n",
					activeTrace.Len(), activeTracePath)
			}
			activeTrace = nil
		case activeTrace != nil:
			fmt.Printf("trace capture already active (writing to %s); \\trace stop first\n", activeTracePath)
		default:
			activeTrace, activeTracePath = db.StartTrace(), words[1]
			fmt.Printf("tracing to %s (\\trace stop to write the file)\n", activeTracePath)
		}
	case "\\stats":
		s := db.Stats()
		fmt.Printf("propagations=%d differentials=%d naive-recomputations=%d triggered=%d actions=%d rounds=%d\n",
			s.Propagations, s.DifferentialsExecuted, s.NaiveRecomputations,
			s.TriggeredInstances, s.ActionsExecuted, s.CheckRounds)
	case "\\mode":
		fmt.Println(db.Session().Rules().Mode())
	case "\\explain":
		for _, e := range db.Explanations() {
			fmt.Printf("rule %s (round %d) triggered for %v\n", e.Rule, e.Round, e.Instances)
			for _, te := range e.Entries {
				fmt.Printf("  %s produced %d tuple(s)\n", te.Differential, te.Produced)
			}
		}
	case "\\net":
		net := db.Session().Rules().Network()
		if net == nil {
			fmt.Println("no active network (no activated rules)")
			break
		}
		for lvl, preds := range net.Levels() {
			fmt.Printf("level %d: %s\n", lvl, strings.Join(preds, ", "))
		}
	case "\\debug":
		words := strings.Fields(cmd)
		if len(words) > 1 && words[1] == "off" {
			db.SetDebug(nil)
			fmt.Println("check-phase tracing off")
		} else {
			db.SetDebug(os.Stdout)
			fmt.Println("check-phase tracing on (\\debug off to disable)")
		}
	case "\\lint":
		rep := db.Session().AnalyzeAll()
		if len(rep) == 0 {
			fmt.Println("no diagnostics")
			break
		}
		for _, d := range rep {
			fmt.Println(d.String())
		}
	case "\\dot":
		net := db.Session().Rules().Network()
		if net == nil {
			fmt.Println("no active network (no activated rules)")
			break
		}
		if words := strings.Fields(cmd); len(words) > 1 && words[1] == "heat" {
			fmt.Print(net.DotHeat())
		} else {
			fmt.Print(net.Dot())
		}
	case "\\checkpoint":
		if err := db.Checkpoint(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("checkpoint written")
		}
	case "\\save":
		words := strings.Fields(cmd)
		if len(words) < 2 {
			fmt.Println("usage: \\save dir")
			break
		}
		if err := db.SaveTo(words[1]); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Printf("saved to %s\n", words[1])
		}
	case "\\subscribe", "\\sub":
		words := strings.Fields(cmd)
		switch {
		case len(words) > 1 && words[1] == "stop":
			if activeSub == nil {
				fmt.Println("no subscription active")
				break
			}
			activeSub.Close()
			<-activeSubDone
			activeSub, activeSubDone = nil, nil
			fmt.Println("subscription closed")
		case activeSub != nil:
			fmt.Println("subscription already active; \\subscribe stop first")
		default:
			var types []partdiff.EventType
			if len(words) > 1 {
				var err error
				if types, err = obs.ParseEventTypes(words[1]); err != nil {
					fmt.Println("error:", err)
					break
				}
			}
			activeSub = db.Subscribe(types...)
			activeSubDone = make(chan struct{})
			go func(sub *partdiff.Subscription, done chan struct{}) {
				defer close(done)
				for {
					e, err := sub.Next(context.Background())
					if err != nil {
						return
					}
					fmt.Printf("!! %s\n", e.String())
				}
			}(activeSub, activeSubDone)
			fmt.Println("subscribed (events print as they commit; \\subscribe stop to end)")
		}
	default:
		fmt.Println("unknown meta command; try \\stats \\metrics \\profile \\hybrid \\counting \\flightrec \\trace \\explain \\net \\dot \\debug \\lint \\mode \\checkpoint \\save \\subscribe \\quit")
	}
	return false
}

// lint loads a script with rule actions disabled (no foreign
// procedures run), then re-runs the static analyzer over every
// definition and rule with full program knowledge and prints the
// diagnostics. Returns the process exit code: 1 if the script failed
// to load or any error-severity diagnostic was reported.
func lint(mode partdiff.Mode, path string) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	db := partdiff.Open(partdiff.WithMode(mode))
	db.SetOutput(io.Discard)
	db.Session().SetLintMode(true)
	failed := false
	if _, err := db.Exec(string(src)); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		failed = true
	}
	rep := db.Session().AnalyzeAll()
	for _, d := range rep {
		fmt.Println(d.String())
	}
	if !failed && len(rep) == 0 {
		fmt.Println("no diagnostics")
	}
	if failed || rep.HasErrors() {
		return 1
	}
	return 0
}

func exec(db *partdiff.DB, src string) error {
	results, err := db.Exec(src)
	for _, r := range results {
		if r.Columns != nil {
			fmt.Println(strings.Join(r.Columns, " | "))
			for _, t := range r.Tuples {
				cells := make([]string, len(t))
				for i, v := range t {
					cells[i] = v.String()
				}
				fmt.Println(strings.Join(cells, " | "))
			}
			fmt.Printf("(%d row(s))\n", len(r.Tuples))
		} else if r.Message != "" {
			fmt.Println(r.Message)
		}
	}
	return err
}

// onOff renders a boolean as "on"/"off" for meta-command status lines.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
