package main

import (
	"os"
	"strings"
	"testing"

	"partdiff"
)

// capture redirects stdout around fn.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	fn()
	w.Close()
	os.Stdout = old
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	return string(buf[:n])
}

func demoDB(t *testing.T) *partdiff.DB {
	t.Helper()
	db := partdiff.Open()
	db.RegisterProcedure("order", func([]partdiff.Value) error { return nil })
	db.MustExec(`
create type item;
create function quantity(item) -> integer;
create rule low() as
    when for each item i where quantity(i) < 10
    do order(i);
create item instances :a;
set quantity(:a) = 100;
activate low();
`)
	return db
}

func TestExecPrintsSelectResults(t *testing.T) {
	db := demoDB(t)
	out := capture(t, func() {
		if err := exec(db, `select i, quantity(i) for each item i;`); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "i | quantity(i)") || !strings.Contains(out, "#1 | 100") ||
		!strings.Contains(out, "(1 row(s))") {
		t.Errorf("output:\n%s", out)
	}
}

func TestExecPrintsMessages(t *testing.T) {
	db := partdiff.Open()
	out := capture(t, func() {
		if err := exec(db, `create type widget;`); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "type widget created") {
		t.Errorf("output:\n%s", out)
	}
}

func TestExecReturnsErrors(t *testing.T) {
	db := partdiff.Open()
	if err := exec(db, `select nosuch(1);`); err == nil {
		t.Error("bad statement should error")
	}
}

func TestMetaCommands(t *testing.T) {
	db := demoDB(t)
	db.MustExec(`set quantity(:a) = 5;`) // fire once

	cases := []struct {
		cmd  string
		want string
	}{
		{"\\mode", "hybrid"},
		{"\\hybrid off", "monitoring mode: incremental"},
		{"\\hybrid on", "monitoring mode: hybrid"},
		{"\\hybrid report", "maintenance: counting=false hybrid=true switches=0"},
		{"\\counting on", "counting maintenance is on"},
		{"\\counting off", "counting maintenance is off"},
		{"\\stats", "propagations="},
		{"\\explain", "rule low"},
		{"\\net", "level 0"},
		{"\\dot", "digraph propagation"},
		{"\\debug", "tracing on"},
		{"\\debug off", "tracing off"},
		{"\\bogus", "unknown meta command"},
	}
	for _, tc := range cases {
		out := capture(t, func() {
			if meta(db, tc.cmd) {
				t.Errorf("%s should not quit", tc.cmd)
			}
		})
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s output %q, want substring %q", tc.cmd, out, tc.want)
		}
	}
	if !meta(db, "\\quit") || !meta(db, "\\q") {
		t.Error("\\quit should signal exit")
	}
}

// TestExampleScripts runs the shipped .amosql demos end to end and
// checks their headline effects.
func TestExampleScripts(t *testing.T) {
	cases := []struct {
		file string
		want string
	}{
		{"../../examples/scripts/inventory.amosql", ">> order(#1, 4880)"},
		{"../../examples/scripts/watchlist.amosql", `"risky account:" #2`},
	}
	for _, tc := range cases {
		src, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		db := partdiff.Open()
		db.RegisterProcedure("order", func(args []partdiff.Value) error { return nil })
		out := capture(t, func() {
			db.SetOutput(os.Stdout)
			// Reuse the shell's order procedure formatting.
			db2 := partdiff.Open()
			db2.SetOutput(os.Stdout)
			db2.RegisterProcedure("order", func(args []partdiff.Value) error {
				parts := make([]string, len(args))
				for i, v := range args {
					parts[i] = v.String()
				}
				os.Stdout.WriteString(">> order(" + strings.Join(parts, ", ") + ")\n")
				return nil
			})
			if err := exec(db2, string(src)); err != nil {
				t.Errorf("%s: %v", tc.file, err)
			}
		})
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s output missing %q:\n%s", tc.file, tc.want, out)
		}
	}
}

func TestMetaNetWithoutActivations(t *testing.T) {
	db := partdiff.Open()
	out := capture(t, func() { meta(db, "\\net") })
	// An empty network is still a network; either message or empty
	// levels is acceptable, but it must not panic.
	_ = out
}

// TestLintCommandClean checks the -lint path over a shipped script.
func TestLintCommandClean(t *testing.T) {
	var code int
	out := capture(t, func() {
		code = lint(partdiff.Incremental, "../../examples/scripts/inventory.amosql")
	})
	if code != 0 {
		t.Fatalf("lint exit code %d for clean script; output:\n%s", code, out)
	}
	if !strings.Contains(out, "no diagnostics") {
		t.Errorf("output:\n%s", out)
	}
}

// TestLintCommandReportsErrors checks the -lint path exits non-zero on
// a script whose rule condition is rejected by the analyzer.
func TestLintCommandReportsErrors(t *testing.T) {
	path := t.TempDir() + "/bad.amosql"
	src := `
create type item;
create function val(item) -> integer;
create function bad(item i) -> boolean as
    select true for each item j where j = i and val(i) > 0 and not bad(i);
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var code int
	capture(t, func() { code = lint(partdiff.Incremental, path) })
	if code != 1 {
		t.Fatalf("lint exit code %d for unstratified script, want 1", code)
	}
}

// TestLintMeta checks the \lint meta command prints the analyzer report
// for the live session.
func TestLintMeta(t *testing.T) {
	db := demoDB(t)
	out := capture(t, func() { meta(db, `\lint`) })
	if !strings.Contains(out, "no diagnostics") {
		t.Errorf("output:\n%s", out)
	}
}

// TestProfileMeta exercises the \profile shell surface: toggling,
// reporting with and without topK, and bad arguments.
func TestProfileMeta(t *testing.T) {
	db := demoDB(t)
	cases := []struct {
		cmd  string
		want string
	}{
		{`\profile`, "profiling is off; usage"},
		{`\profile report`, "no differential executions profiled"},
		{`\profile on`, "propagation profiling on"},
		{`\profile bogus`, "usage: \\profile"},
	}
	for _, tc := range cases {
		out := capture(t, func() {
			if meta(db, tc.cmd) {
				t.Errorf("%s should not quit", tc.cmd)
			}
		})
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s output %q, want substring %q", tc.cmd, out, tc.want)
		}
	}

	db.MustExec("begin; set quantity(:a) = 50; commit;")
	out := capture(t, func() { meta(db, `\profile report`) })
	for _, want := range []string{"propagation profile —", "zero-effect executions by source:", "low"} {
		if !strings.Contains(out, want) {
			t.Errorf("\\profile report output %q missing %q", out, want)
		}
	}
	out = capture(t, func() { meta(db, `\profile report 1`) })
	if !strings.Contains(out, "rank") {
		t.Errorf("\\profile report 1 output %q", out)
	}
	out = capture(t, func() { meta(db, `\profile report x`) })
	if !strings.Contains(out, "bad topK") {
		t.Errorf("bad topK output %q", out)
	}
	out = capture(t, func() { meta(db, `\profile off`) })
	if !strings.Contains(out, "propagation profiling off") {
		t.Errorf("\\profile off output %q", out)
	}
}

// TestMetricsMetaPrefix exercises the \metrics prefix filter.
func TestMetricsMetaPrefix(t *testing.T) {
	db := demoDB(t)
	db.MustExec("begin; set quantity(:a) = 50; commit;")
	out := capture(t, func() { meta(db, `\metrics propnet_`) })
	if !strings.Contains(out, "partdiff_propnet_propagations_total") {
		t.Errorf("\\metrics propnet_ missing propnet counters:\n%s", out)
	}
	if strings.Contains(out, "partdiff_txn_commits_total") {
		t.Errorf("\\metrics propnet_ leaked txn counters:\n%s", out)
	}
	out = capture(t, func() { meta(db, `\metrics`) })
	if !strings.Contains(out, "partdiff_txn_commits_total") {
		t.Errorf("unfiltered \\metrics missing txn counters:\n%s", out)
	}
}

// TestDotHeatMeta exercises the \dot heat export.
func TestDotHeatMeta(t *testing.T) {
	db := demoDB(t)
	db.SetProfiling(true)
	db.MustExec("begin; set quantity(:a) = 50; commit;")
	out := capture(t, func() { meta(db, `\dot heat`) })
	for _, want := range []string{"digraph propagation", "style=filled", "scanned "} {
		if !strings.Contains(out, want) {
			t.Errorf("\\dot heat output missing %q:\n%s", want, out)
		}
	}
}
