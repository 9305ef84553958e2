package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"oak/internal/flagdoc"
)

// mainEnv makes the test binary run oakgw's main with its arguments.
const mainEnv = "OAKGW_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestFlagsTableMatchesTheBinary: OPERATIONS.md's gateway flags table has one
// row for each flag `oakgw -h` lists and no other row, and a default cell that
// opens with a code span spells the flag's default as -h does.
func TestFlagsTableMatchesTheBinary(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var usage bytes.Buffer
	cmd.Stderr = &usage
	cmd.Run() // -h exits non-zero
	flags, err := flagdoc.Parse(usage.String())
	if err != nil || len(flags) == 0 {
		t.Fatalf("oakgw -h: %d flags, %v, from\n%s", len(flags), err, usage.String())
	}
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := flagdoc.Rows(string(doc), "### Gateway flags")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flagdoc.Check(flags, rows) {
		t.Error(p)
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-backends", "a:1,b:2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.backends != "a:1,b:2" {
		t.Fatalf("backends = %q", cfg.backends)
	}
	if cfg.addr != ":8090" {
		t.Fatalf("addr = %q", cfg.addr)
	}
	if cfg.probeInterval != 500*time.Millisecond {
		t.Fatalf("probeInterval = %v", cfg.probeInterval)
	}
	if cfg.deadThreshold != 5 {
		t.Fatalf("deadThreshold = %d", cfg.deadThreshold)
	}
}

func TestBuildGatewayRequiresBackends(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildGateway(cfg); err == nil {
		t.Fatal("expected error without -backends")
	}
	cfg.backends = " , ,"
	if _, err := buildGateway(cfg); err == nil {
		t.Fatal("expected error with blank backends")
	}
}

func TestBuildGatewayServes(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-backends", "localhost:18081, localhost:18082 ,localhost:18083",
		"-standby", "localhost:18084",
		"-probe-interval", "50ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := buildGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if got := len(gw.BackendStates()); got != 3 {
		t.Fatalf("backends = %d, want 3", got)
	}

	// The aggregated healthz answers even with no backend reachable.
	rec := httptest.NewRecorder()
	gw.ServeHTTP(rec, httptest.NewRequest("GET", "/oak/v1/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"backends"`) {
		t.Fatalf("healthz body missing backends: %s", rec.Body.String())
	}
}
