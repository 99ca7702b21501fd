package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
)

// specPath is a small real campaign spec, used by setup-failure tests
// (the failures trigger before any simulation runs).
const specPath = "../../testdata/golden/campaigns/stress-quick.json"

func TestShellQuote(t *testing.T) {
	cases := map[string]string{
		"plain":            "plain",
		"out/dir.jsonl":    "out/dir.jsonl",
		"-resume":          "-resume",
		"":                 "''",
		"has space":        "'has space'",
		"semi;colon":       "'semi;colon'",
		"a'b":              `'a'\''b'`,
		"$(rm -rf x)":      `'$(rm -rf x)'`,
		"tab\tchar":        "'tab\tchar'",
		"glob*.json":       "'glob*.json'",
		"name=value,x:y@z": "name=value,x:y@z",
	}
	for in, want := range cases {
		if got := shellQuote(in); got != want {
			t.Errorf("shellQuote(%q) = %s, want %s", in, got, want)
		}
	}
}

// TestResumeCommand locks the resume-hint contract: -resume is appended
// exactly when no -resume flag token is present (a flag *value* spelled
// "resume" must not suppress it), and every token is shell-quoted.
func TestResumeCommand(t *testing.T) {
	self := shellQuote(os.Args[0])
	cases := []struct {
		name string
		spec string
		args []string
		want string
	}{
		{
			name: "appends resume",
			spec: "spec.json",
			args: []string{"-checkpoint", "ckpt"},
			want: self + " run spec.json -checkpoint ckpt -resume",
		},
		{
			name: "already resuming",
			spec: "spec.json",
			args: []string{"-checkpoint", "ckpt", "-resume"},
			want: self + " run spec.json -checkpoint ckpt -resume",
		},
		{
			name: "double-dash and assigned forms count",
			spec: "spec.json",
			args: []string{"--resume=true", "-checkpoint", "ckpt"},
			want: self + " run spec.json --resume=true -checkpoint ckpt",
		},
		{
			name: "flag value named resume does not suppress",
			spec: "spec.json",
			args: []string{"-checkpoint", "resume"},
			want: self + " run spec.json -checkpoint resume -resume",
		},
		{
			name: "tokens with spaces are quoted",
			spec: "my spec.json",
			args: []string{"-jsonl", "out dir/res.jsonl"},
			want: self + " run 'my spec.json' -jsonl 'out dir/res.jsonl' -resume",
		},
		{
			name: "single quotes survive",
			spec: "it's.json",
			args: []string{"-checkpoint", "ckpt"},
			want: self + ` run 'it'\''s.json' -checkpoint ckpt -resume`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := resumeCommand(c.spec, c.args); got != c.want {
				t.Errorf("resumeCommand(%q, %v)\n got %s\nwant %s", c.spec, c.args, got, c.want)
			}
		})
	}
}

// openPartialFDs lists this process's open file descriptors pointing at
// .partial sink files under dir.
func openPartialFDs(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var leaked []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err != nil {
			continue
		}
		if strings.HasPrefix(target, dir) && strings.HasSuffix(target, ".partial") {
			leaked = append(leaked, target)
		}
	}
	return leaked
}

// TestRunAbortsSinksOnSetupFailure is the sink-leak regression test: when
// setup fails after a FileSink was created (here: -checkpoint pointing at
// an existing file, so the journal cannot open), the sink must be aborted
// — its .partial file descriptor closed — before runCampaign returns.
func TestRunAbortsSinksOnSetupFailure(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "ckpt")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.jsonl")

	code := runCampaign(specPath, []string{"-jsonl", out, "-checkpoint", notADir})
	if code == 0 {
		t.Fatal("runCampaign succeeded with a file as -checkpoint dir")
	}
	if leaked := openPartialFDs(t, dir); len(leaked) != 0 {
		t.Fatalf("open .partial file descriptors leaked after setup failure: %v", leaked)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("final output %s exists after failed setup (err=%v)", out, err)
	}
}

// TestHeartbeatStopsOnSetupFailure is the heartbeat-leak regression test:
// a setup failure after -progress armed the heartbeat must still stop it,
// observable as the final progress line stop() prints.
func TestHeartbeatStopsOnSetupFailure(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "ckpt")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The heartbeat writes to stderr, and stop() prints one final line
	// even if no tick ever fired.
	code, captured := captureStderr(t, func() int {
		return runCampaign(specPath, []string{
			"-progress", "-jsonl", filepath.Join(dir, "out.jsonl"), "-checkpoint", notADir,
		})
	})

	if code == 0 {
		t.Fatal("runCampaign succeeded with a file as -checkpoint dir")
	}
	if !strings.Contains(captured, "progress: stress-quick") {
		t.Fatalf("no final heartbeat line on setup failure — heartbeat goroutine leaked:\n%s", captured)
	}
}

// captureStderr runs fn with os.Stderr redirected and returns fn's result
// and what it wrote there.
func captureStderr(t *testing.T, fn func() int) (int, string) {
	t.Helper()
	orig := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	code := fn()
	w.Close()
	os.Stderr = orig
	captured, _ := io.ReadAll(r)
	r.Close()
	return code, string(captured)
}

// TestSetupErrorsPrintOnePrefix checks that an error whose text already
// starts with "campaign" (LoadSpec's, ParseSpec's, Expand's,
// NewFileSink's, and every error Campaign.Run returns, which names the
// campaign) is printed as is, not under a second prefix, and that a Run
// error with -checkpoint prints the resume hint only once the journal had
// opened.
func TestSetupErrorsPrintOnePrefix(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.json")
	_, openErr := os.Open(missing)
	spec := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	typo := spec("typo.json", `{"name":"x","axes":{"protocol":["smps"]}}`)
	unnamed := spec("unnamed.json", `{"name":"x","base":{"workload":"all-to-all","nodes":25,"zoneRadius":15},"axes":{"protocol":[7]}}`)
	zero := spec("zero.json", `{"name":"x","base":{"protocol":"spms","workload":"all-to-all","nodes":25,"zoneRadius":15},"axes":{"gridSpacing":[0,5]}}`)
	partial := filepath.Join(dir, "no-such-dir", "c1.jsonl.partial")
	_, createErr := os.Create(partial)
	notADir := spec("ckpt", "x")
	mkdirErr := os.MkdirAll(notADir, 0o755)
	// A journal that is a directory: replaying it fails.
	unreadable := filepath.Join(dir, "unreadable")
	if err := os.MkdirAll(checkpoint.JournalPath(unreadable), 0o755); err != nil {
		t.Fatal(err)
	}
	_, readErr := os.ReadFile(checkpoint.JournalPath(unreadable))
	// A closed stdout: the JSONL sink's first write fails.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	w.Close()
	_, writeErr := w.Write([]byte("x"))
	if openErr == nil || createErr == nil || mkdirErr == nil || readErr == nil || writeErr == nil {
		t.Fatal("missing paths opened")
	}
	journalArgs := []string{"-parallel", "1", "-checkpoint", filepath.Join(dir, "journal")}
	cases := []struct {
		name   string
		args   []string
		stdout *os.File // replaces os.Stdout for the run if set
		want   string
	}{
		{"missing spec", []string{"run", missing}, nil, "campaign: " + openErr.Error()},
		{"unknown protocol", []string{"run", typo}, nil,
			`campaign: parse spec: experiment: unknown protocol "smps" (want spms | spin | flood) (in ` + typo + ")"},
		{"unnamed protocol", []string{"validate", unnamed}, nil,
			`campaign "x": point 0 (protocol=protocol(7)): experiment: unknown protocol 7`},
		{"zero axis value", []string{"run", zero}, nil,
			`campaign: axis gridSpacing: zero means "use the default" in a Scenario and would be replaced by the default; write the intended value explicitly`},
		{"missing sink directory", []string{"run", specPath, "-jsonl", filepath.Join(dir, "no-such-dir", "c1.jsonl")}, nil,
			"campaign: create " + partial + ": " + createErr.Error()},
		{"sink write failure", []string{"run", specPath, "-parallel", "1"}, w,
			`campaign "stress-quick": jsonl write: ` + writeErr.Error()},
		// The journal never opened, so there is nothing to resume.
		{"journal failure", []string{"run", specPath, "-checkpoint", notADir}, nil,
			`campaign "stress-quick": checkpoint: create dir: ` + mkdirErr.Error()},
		{"journal replay failure", []string{"run", specPath, "-checkpoint", unreadable, "-resume"}, nil,
			`campaign: resuming "stress-quick" from ` + checkpoint.JournalPath(unreadable) +
				"\ncampaign \"stress-quick\": checkpoint: read journal: " + readErr.Error()},
		// The journal opened before the sink failed: resuming helps.
		{"sink write failure with a journal", append([]string{"run", specPath}, journalArgs...), w,
			`campaign "stress-quick": jsonl write: ` + writeErr.Error() +
				"\ncampaign: resume with:\n  " + resumeCommand(specPath, journalArgs)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.stdout != nil {
				orig := os.Stdout
				os.Stdout = c.stdout
				defer func() { os.Stdout = orig }()
			}
			code, stderr := captureStderr(t, func() int { return run(c.args) })
			if code != 1 || stderr != c.want+"\n" {
				t.Errorf("exit %d, stderr %q\nwant exit 1, stderr %q", code, stderr, c.want+"\n")
			}
		})
	}
}

// TestRunDispatch covers the subcommand surface incl. the serve special
// case (no spec path) without binding a real port for the others.
func TestRunDispatch(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Errorf("run() = %d, want usage (2)", code)
	}
	if code := run([]string{"run"}); code != 2 {
		t.Errorf("run(run) = %d, want usage (2)", code)
	}
	if code := run([]string{"run", "-parallel"}); code != 2 {
		t.Errorf("flag before spec path = %d, want usage (2)", code)
	}
	if code := run([]string{"frobnicate", "x.json"}); code != 2 {
		t.Errorf("unknown subcommand = %d, want usage (2)", code)
	}
	if code := run([]string{"validate", specPath}); code != 0 {
		t.Errorf("validate = %d, want 0", code)
	}
	// serve with an unusable listen address exits 1 (not usage): the
	// subcommand parsed without a spec path.
	if code := run([]string{"serve", "-addr", "256.256.256.256:0"}); code != 1 {
		t.Errorf("serve with bad addr = %d, want 1", code)
	}
}
