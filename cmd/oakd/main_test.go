package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"oak"
	"oak/internal/flagdoc"
)

// daemonEnv makes the test binary run oakd's main with its arguments, so a
// test can start the daemon as a real process and signal it.
const daemonEnv = "OAKD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// oakUnmarshal aliases the facade helper for test brevity.
var oakUnmarshal = oak.UnmarshalReport

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func newSiteDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "index.html"), "<html>home</html>")
	writeFile(t, filepath.Join(dir, "blog", "post.html"), "<html>post</html>")
	writeFile(t, filepath.Join(dir, "notes.txt"), "not a page")
	return dir
}

func TestBuildServerServesPages(t *testing.T) {
	dir := newSiteDir(t)
	server, boot, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	if boot.pages != 2 || boot.rules != 0 {
		t.Errorf("pages=%d rules=%d, want 2/0", boot.pages, boot.rules)
	}
	ts := httptest.NewServer(server)
	defer ts.Close()

	for _, path := range []string{"/index.html", "/", "/blog/post.html"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "<html>") {
			t.Errorf("GET %s body = %q", path, body)
		}
	}
	resp, err := http.Get(ts.URL + "/notes.txt")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("non-HTML file served: %d", resp.StatusCode)
	}
}

func TestBuildServerWithDSLRules(t *testing.T) {
	dir := newSiteDir(t)
	ruleFile := filepath.Join(dir, "rules.oak")
	writeFile(t, ruleFile, `
rule r1 {
  type 1
  default "<div>ad</div>"
  ttl 0
  scope *
}
`)
	_, boot, err := buildServer(oakdConfig{root: dir, ruleFile: ruleFile, verbose: true})
	if err != nil {
		t.Fatal(err)
	}
	if boot.rules != 1 {
		t.Errorf("rules = %d, want 1", boot.rules)
	}
}

func TestBuildServerWithJSONRules(t *testing.T) {
	dir := newSiteDir(t)
	ruleFile := filepath.Join(dir, "rules.json")
	writeFile(t, ruleFile, `[{"id":"r1","type":1,"default":"<div>ad</div>","scope":"*","ttlMillis":0}]`)
	_, boot, err := buildServer(oakdConfig{root: dir, ruleFile: ruleFile, verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	if boot.rules != 1 {
		t.Errorf("rules = %d, want 1", boot.rules)
	}
}

func TestBuildServerErrors(t *testing.T) {
	dir := newSiteDir(t)
	if _, _, err := buildServer(oakdConfig{root: dir, ruleFile: filepath.Join(dir, "missing.oak"), verbose: false}); err == nil {
		t.Error("missing rule file: want error")
	}
	bad := filepath.Join(dir, "bad.oak")
	writeFile(t, bad, "rule broken {")
	if _, _, err := buildServer(oakdConfig{root: dir, ruleFile: bad, verbose: false}); err == nil {
		t.Error("bad rule file: want error")
	}
	empty := t.TempDir()
	if _, _, err := buildServer(oakdConfig{root: empty, ruleFile: "", verbose: false}); err == nil {
		t.Error("empty page dir: want error")
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag: want error")
	}
	// Shedding from unbounded ingest would silently do nothing.
	err := run([]string{"-root", newSiteDir(t), "-shed-wait", "50ms"})
	if err == nil || !strings.Contains(err.Error(), "-shed-wait") || !strings.Contains(err.Error(), "-ingest-queue") {
		t.Errorf("-shed-wait without -ingest-queue: err = %v, want one naming both flags", err)
	}
}

// TestFlagsTableMatchesTheBinary: OPERATIONS.md's Flags table has one row for
// each flag `oakd -h` lists and no other row, and a default cell that opens
// with a code span spells the flag's default as -h does.
func TestFlagsTableMatchesTheBinary(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	var usage bytes.Buffer
	cmd.Stderr = &usage
	cmd.Run() // -h exits non-zero
	flags, err := flagdoc.Parse(usage.String())
	if err != nil || len(flags) == 0 {
		t.Fatalf("oakd -h: %d flags, %v, from\n%s", len(flags), err, usage.String())
	}
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := flagdoc.Rows(string(doc), "## Flags")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flagdoc.Check(flags, rows) {
		t.Error(p)
	}
}

func TestStatePersistence(t *testing.T) {
	dir := newSiteDir(t)
	ruleFile := filepath.Join(dir, "rules.oak")
	writeFile(t, ruleFile, `
rule swap {
  type 2
  default "<img src=\"http://slow.example/x.png\">"
  alt "<img src=\"http://fast.example/x.png\">"
  ttl 0
  scope *
}
`)
	server, _, err := buildServer(oakdConfig{root: dir, ruleFile: ruleFile, verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate learned state: one report that activates the rule.
	rep := `{"userId":"u1","page":"/index.html","entries":[
	  {"url":"http://slow.example/x.png","serverAddr":"9.9.9.9","sizeBytes":1000,"durationMillis":3000},
	  {"url":"http://a.example/a.png","serverAddr":"1.1.1.1","sizeBytes":1000,"durationMillis":100},
	  {"url":"http://b.example/b.png","serverAddr":"2.2.2.2","sizeBytes":1000,"durationMillis":110},
	  {"url":"http://c.example/c.png","serverAddr":"3.3.3.3","sizeBytes":1000,"durationMillis":95}
	]}`
	parsed, err := oakUnmarshal([]byte(rep))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Engine().HandleReport(parsed); err != nil {
		t.Fatal(err)
	}

	statePath := filepath.Join(dir, "state.json")
	if err := saveState(server.Engine(), statePath); err != nil {
		t.Fatal(err)
	}

	// A restarted server restores the activation.
	server2, _, err := buildServer(oakdConfig{root: dir, ruleFile: ruleFile, verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := loadState(server2.Engine(), statePath); err != nil {
		t.Fatal(err)
	}
	snap, ok := server2.Engine().Snapshot("u1")
	if !ok || len(snap.ActiveRules) != 1 {
		t.Errorf("restored snapshot = %+v", snap)
	}
}

func TestLoadStateCorruptFallsBackToBackup(t *testing.T) {
	dir := newSiteDir(t)
	server, _, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "state.json")
	if err := saveState(server.Engine(), statePath); err != nil {
		t.Fatal(err)
	}
	// Save again so the first good snapshot rotates into .bak, then corrupt
	// the primary mid-file, as a torn write or disk fault would.
	if err := saveState(server.Engine(), statePath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(statePath, data, 0o600); err != nil {
		t.Fatal(err)
	}

	server2, _, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := loadState(server2.Engine(), statePath); err != nil {
		t.Errorf("corrupt primary with good backup must not abort boot: %v", err)
	}
	if _, got := server2.Engine().StateStatus(); got != 1 {
		t.Errorf("StateRecoveries = %d, want 1", got)
	}
}

// TestLoadStateBothCorruptAbortsBoot: with neither the state file nor its
// backup usable, boot stops with the corruption instead of starting empty,
// and leaves both files as they were for the operator.
func TestLoadStateBothCorruptAbortsBoot(t *testing.T) {
	dir := newSiteDir(t)
	server, _, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "state.json")
	files := map[string][]byte{statePath: []byte("OAKPROF1\ntorn"), statePath + ".bak": []byte("garbage{")}
	for path, data := range files {
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := loadState(server.Engine(), statePath); !errors.Is(err, oak.ErrCorruptState) {
		t.Fatalf("loadState with both files corrupt = %v, want ErrCorruptState", err)
	}
	for path, want := range files {
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
			t.Errorf("%s changed by the aborted boot: %q", path, got)
		}
	}
}

// TestBootLineSaysWhenItMigrated: a boot on a JSON state file says so; the
// boot on the checkpoint the next save writes does not.
func TestBootLineSaysWhenItMigrated(t *testing.T) {
	dir := newSiteDir(t)
	server, _, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := server.Engine().ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "state.json")
	if err := os.WriteFile(statePath, snapshot, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, migrated := range []bool{true, false} {
		server, _, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
		if err != nil {
			t.Fatal(err)
		}
		if err := loadState(server.Engine(), statePath); err != nil {
			t.Fatal(err)
		}
		if line := bootSplit(server.Engine(), statePath); strings.Contains(line, "migrated") != migrated {
			t.Errorf("boot line %q; want it to say migrated = %v", line, migrated)
		}
		if err := saveState(server.Engine(), statePath); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootLineSaysWhichCheckpoint: under a profile cap the boot line names
// what the boot adopted — nothing, the spill directory's checkpoint, its
// backup when the checkpoint is damaged, or a state file from before the
// checkpoint moved into the spill directory.
func TestBootLineSaysWhichCheckpoint(t *testing.T) {
	dir := newSiteDir(t)
	spill, statePath := filepath.Join(dir, "spill"), filepath.Join(dir, "state.json")
	boot := func(want string) *oak.Engine {
		t.Helper()
		server, _, err := buildServer(oakdConfig{root: dir, profileCache: 2, spillDir: spill})
		if err != nil {
			t.Fatal(err)
		}
		if err := loadState(server.Engine(), statePath); err != nil {
			t.Fatal(err)
		}
		if line := bootSplit(server.Engine(), statePath); !strings.Contains(line, want) {
			t.Errorf("boot line %q; want it to say %q", line, want)
		}
		return server.Engine()
	}
	e := boot("no checkpoint")
	for i := 0; i < 2; i++ { // twice: the checkpoint has a backup
		if err := saveState(e, statePath); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	ckpt := filepath.Join(spill, "checkpoint")
	boot("checkpoint " + ckpt + " adopted").Close()
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	writeFile(t, ckpt, string(data))
	boot("its backup " + ckpt + ".bak adopted").Close()

	snapshot, err := e.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	os.RemoveAll(spill)
	writeFile(t, statePath, string(snapshot))
	boot("legacy state file " + statePath + " read").Close()
}

// TestBootLineNamesEveryStage: the boot line gives the time of each stage —
// the rules, the engine, the pages and the durable state — with and without
// a profile cap, so a slower restart names the stage that moved.
func TestBootLineNamesEveryStage(t *testing.T) {
	dir := newSiteDir(t)
	ruleFile := filepath.Join(dir, "rules.oak")
	writeFile(t, ruleFile, "rule r1 {\n  type 1\n  default \"<div>ad</div>\"\n  ttl 0\n  scope *\n}\n")
	for _, cfg := range []oakdConfig{
		{root: dir, ruleFile: ruleFile},
		{root: dir, ruleFile: ruleFile, profileCache: 2, spillDir: filepath.Join(dir, "spill")},
	} {
		server, boot, err := buildServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := loadState(server.Engine(), filepath.Join(dir, "state")); err != nil {
			t.Fatal(err)
		}
		line := boot.stages(server.Engine().BootStatus())
		for _, stage := range []string{"rules", "engine", "pages", "state"} {
			var d time.Duration
			i := strings.Index(line, stage+" ")
			if i < 0 {
				t.Errorf("boot line %q names no %s stage", line, stage)
				continue
			}
			if d, err = time.ParseDuration(strings.TrimSuffix(strings.Fields(line[i+len(stage)+1:])[0], ",")); err != nil || d < 0 {
				t.Errorf("boot line %q: the %s stage reads %v, %v", line, stage, d, err)
			}
		}
		server.Engine().Close()
	}
}

// TestCappedBootLineSplitsTheRecovery: under a profile cap the state line
// gives the segment replay's time and its parts — reading the checkpoint,
// installing its index, walking the segments, lifting the guard — and none
// of them is more than the whole.
func TestCappedBootLineSplitsTheRecovery(t *testing.T) {
	dir := newSiteDir(t)
	cfg := oakdConfig{root: dir, profileCache: 2, spillDir: filepath.Join(dir, "spill"), guardTrip: 5}
	statePath := filepath.Join(dir, "state.json")
	for boot := 0; boot < 2; boot++ { // the second boot adopts the first one's checkpoint
		server, _, err := buildServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := server.Engine()
		if err := loadState(e, statePath); err != nil {
			t.Fatal(err)
		}
		line := bootSplit(e, statePath)
		parse := func(part string) time.Duration {
			i := strings.Index(line, part+" ")
			if i < 0 {
				t.Fatalf("boot line %q names no %s", line, part)
			}
			d, err := time.ParseDuration(strings.TrimRight(strings.Fields(line[i+len(part)+1:])[0], ",()"))
			if err != nil || d < 0 {
				t.Fatalf("boot line %q: %s reads %v, %v", line, part, d, err)
			}
			return d
		}
		whole := parse("recover")
		for _, part := range []string{"(checkpoint", "index", "walk", "lift"} {
			if d := parse(part); d > whole {
				t.Errorf("boot line %q: %s %v is more than the whole recovery", line, part, d)
			}
		}
		if boot == 1 && !strings.Contains(line, "checkpoint "+filepath.Join(cfg.spillDir, "checkpoint")+" adopted") {
			t.Errorf("boot line %q; want the checkpoint adopted", line)
		}
		if err := saveState(e, statePath); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
}

func TestSaveStateLeavesNoTempFile(t *testing.T) {
	dir := newSiteDir(t)
	server, _, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "state.json")
	if err := saveState(server.Engine(), statePath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(statePath + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind after save: %v", err)
	}
	// A second save rotates the previous snapshot into .bak.
	if err := saveState(server.Engine(), statePath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(statePath + ".bak"); err != nil {
		t.Errorf("second save did not rotate a backup: %v", err)
	}
}

func TestLoadStateMissingFileOK(t *testing.T) {
	dir := newSiteDir(t)
	server, _, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	if err := loadState(server.Engine(), filepath.Join(dir, "absent.json")); err != nil {
		t.Errorf("missing state file should be fresh start, got %v", err)
	}
}

func TestPersistPeriodicallyStops(t *testing.T) {
	dir := newSiteDir(t)
	server, _, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "state.json")
	stop := persistPeriodically(server.Engine(), statePath, 10*time.Millisecond)
	// The file must appear before stop, whose own final save would write it.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for deadline := time.Now().Add(5 * time.Second); ; <-tick.C {
		if _, err := os.Stat(statePath); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("periodic save never wrote %s: %v", statePath, err)
		}
	}
	stop()
}

func TestPersistStopTakesFinalSave(t *testing.T) {
	// Even when the interval never fires, stopping the loop persists once —
	// this is the graceful-shutdown save path.
	dir := newSiteDir(t)
	server, _, err := buildServer(oakdConfig{root: dir, ruleFile: "", verbose: false})
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "state.json")
	stop := persistPeriodically(server.Engine(), statePath, time.Hour)
	if _, err := os.Stat(statePath); err == nil {
		t.Fatal("state written before stop despite 1h interval")
	}
	stop()
	if _, err := os.Stat(statePath); err != nil {
		t.Errorf("stop() did not take a final save: %v", err)
	}
}

// lineWatcher is a log output that closes seen at the first write holding
// want.
type lineWatcher struct {
	want string
	seen chan struct{}
	once *sync.Once
}

func (w lineWatcher) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(w.want)) {
		w.once.Do(func() { close(w.seen) })
	}
	return len(p), nil
}

func TestRunGracefulShutdownPersistsState(t *testing.T) {
	// Keep the test process alive across the self-signal even if run has
	// not yet installed its handler.
	guard := make(chan os.Signal, 1)
	signal.Notify(guard, syscall.SIGTERM)
	defer signal.Stop(guard)

	dir := newSiteDir(t)
	statePath := filepath.Join(dir, "state.json")
	// run logs that it is serving once its signal handler is installed.
	serving := make(chan struct{})
	log.SetOutput(lineWatcher{"oakd: serving", serving, new(sync.Once)})
	defer log.SetOutput(os.Stderr)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-root", dir, "-addr", "127.0.0.1:0",
			"-state", statePath, "-save-interval", "1h",
		})
	}()
	select {
	case <-serving:
	case err := <-errCh:
		t.Fatalf("run returned %v before serving", err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (graceful)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down after SIGTERM")
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Errorf("graceful shutdown skipped the final state save: %v", err)
	}

	// The same promise for a real process signalled the instant its port
	// accepts, before anything else could have run: it exits 0, it saves,
	// and a report it acknowledged on the way down is in the file.
	t.Run("signalled as the port opens", func(t *testing.T) {
		rounds, acked := 50, 0
		if testing.Short() {
			rounds = 10
		}
		for round := 0; round < rounds; round++ {
			if signalAsPortOpens(t, dir, round) {
				acked++
			}
		}
		t.Logf("%d of %d rounds had a report acknowledged during shutdown", acked, rounds)
	})
}

// signalAsPortOpens boots oakd as a subprocess, sends it SIGTERM as soon as a
// connection to its port succeeds, then posts a report on that connection.
// It reports whether the report was acknowledged.
func signalAsPortOpens(t *testing.T, dir string, round int) (acked bool) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	statePath := filepath.Join(dir, fmt.Sprintf("signalled-%d.json", round))
	user := fmt.Sprintf("signalled-user-%d", round)

	var logs bytes.Buffer
	cmd := exec.Command(os.Args[0], "-root", dir, "-addr", addr, "-state", statePath, "-save-interval", "1h")
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var conn net.Conn
	for deadline := time.Now().Add(10 * time.Second); ; {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("round %d: oakd never listened: %v\n%s", round, err, logs.String())
		}
	}
	defer conn.Close()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The connection predates the shutdown, so a server that accepted it
	// serves it before it drains; one that had not resets it, and then
	// nothing was acknowledged.
	body := fmt.Sprintf(`{"userId":%q,"page":"/index.html","entries":[{"url":"http://a.example/a.png","serverAddr":"1.1.1.1","sizeBytes":1000,"durationMillis":100}]}`, user)
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "POST /oak/v1/report HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", addr, len(body), body)
	if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err == nil {
		resp.Body.Close()
		acked = resp.StatusCode == http.StatusNoContent
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("round %d: oakd signalled as its port opened: %v, want exit 0\n%s", round, err, logs.String())
	}
	state, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatalf("round %d: no final state save: %v\n%s", round, err, logs.String())
	}
	if acked && !bytes.Contains(state, []byte(user)) {
		t.Fatalf("round %d: the acknowledged report of %s is not in the state file", round, user)
	}
	return acked
}
