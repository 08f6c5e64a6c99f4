package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fpmpart/internal/clusterd"
	"fpmpart/internal/service"
	"fpmpart/internal/telemetry"
)

func TestSplitPeers(t *testing.T) {
	got := splitPeers(" http://a:1 ,,http://b:2,")
	want := []string{"http://a:1", "http://b:2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitPeers = %v, want %v", got, want)
	}
	if splitPeers("") != nil {
		t.Fatal("empty -peers must yield nil")
	}
}

func TestCheckRing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		self    string
		peers   []string
		wantErr string
	}{
		{name: "standalone"},
		{name: "single member", self: "http://10.0.0.1:8081"},
		{name: "full ring", self: "https://a:1", peers: []string{"https://a:1", "http://b:2"}},
		{name: "peers without self", peers: []string{"http://a:1"}, wantErr: "-self is not"},
		{name: "self without scheme", self: "10.0.0.1:8081", wantErr: `"10.0.0.1:8081"`},
		{name: "self host-only scheme", self: "localhost:8081", wantErr: `"localhost:8081"`},
		{name: "self without host", self: "http://", wantErr: `"http://"`},
		{name: "peer without scheme", self: "http://a:1", peers: []string{"http://a:1", "b:2"}, wantErr: `"b:2"`},
		{name: "peer wrong scheme", self: "http://a:1", peers: []string{"ftp://b:2"}, wantErr: `"ftp://b:2"`},
	} {
		err := checkRing(tc.self, tc.peers)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.wantErr)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: a log sink written by request
// goroutines (or a child process's output copier) and read by the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// do sends one request and returns the response (body already drained) and
// its body.
func do(t *testing.T, method, url, contentType, requestID string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp, data
}

// TestRunSmoke is the single-daemon end-to-end check: boot on an ephemeral
// port, upload a model over HTTP (text format), read it back, partition with
// a caller-supplied request ID, post observe batches, verify the request's
// trace in the flight recorder (span tree and JSON log correlation), grab a
// CPU profile from pprof, scrape /metrics, and shut down gracefully.
func TestRunSmoke(t *testing.T) {
	prev := telemetry.Default().Enabled()
	telemetry.Default().SetEnabled(true)
	defer telemetry.Default().SetEnabled(prev)

	dir := t.TempDir()
	var logBuf syncBuffer
	s, err := service.New(service.Config{
		ModelDir:      dir,
		EnablePprof:   true,
		EnableObserve: true,
		Logger:        slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	stopRuntime := telemetry.Default().StartRuntimeCollector(time.Second)
	defer stopRuntime()
	bound, drain, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + bound

	model := `{"points":[{"size":1000,"speed":250},{"size":2000,"speed":400},{"size":4000,"speed":380},{"size":8000,"speed":220}]}`
	if resp, body := do(t, http.MethodPut, base+"/v1/models/smoke", "application/json", "", []byte(model)); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload model: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodGet, base+"/v1/models/smoke", "", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch model: %d %s", resp.StatusCode, body)
	}

	const reqID = "smoke-req-1"
	resp, data := do(t, http.MethodPost, base+"/v1/partition", "application/json", reqID,
		[]byte(`{"models":["smoke"],"n":5000}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: %d %s", resp.StatusCode, data)
	}
	var pr struct {
		Total   int `json:"total"`
		Devices []struct {
			Units int `json:"units"`
		} `json:"devices"`
	}
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("partition response: %v", err)
	}
	if pr.Total != 5000 || len(pr.Devices) != 1 || pr.Devices[0].Units != 5000 {
		t.Fatalf("partition response off: %s", data)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Fatalf("X-Request-Id echoed as %q, want %q", got, reqID)
	}

	// Online refinement path: a valid observe batch is accepted, an invalid
	// one is a clean 400 (client bug, not a server fault).
	if resp, body := do(t, http.MethodPost, base+"/v1/observe", "application/json", "",
		[]byte(`{"model":"smoke","samples":[{"size":2000,"seconds":5.0},{"size":2000,"seconds":5.1}]}`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	if resp, _ := do(t, http.MethodPost, base+"/v1/observe", "application/json", "",
		[]byte(`{"model":"smoke","samples":[{"size":2000,"seconds":-1}]}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid observe batch: status %d, want 400", resp.StatusCode)
	}

	// Flight recorder: the request id is in the recent list and its
	// drill-down span tree contains the serving stages.
	resp, data = do(t, http.MethodGet, base+"/debug/requests", "", "", nil)
	var list struct {
		Recent []struct {
			ID string `json:"id"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("flight recorder list (status %d): %v", resp.StatusCode, err)
	}
	listed := false
	for _, e := range list.Recent {
		listed = listed || e.ID == reqID
	}
	if !listed {
		t.Fatalf("request %s not in /debug/requests recent list: %s", reqID, data)
	}
	resp, data = do(t, http.MethodGet, base+"/debug/requests?id="+reqID, "", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight recorder drill-down: %d %s", resp.StatusCode, data)
	}
	type span struct {
		Name     string `json:"name"`
		Children []span `json:"children"`
	}
	var snap struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("flight recorder drill-down: %v", err)
	}
	names := map[string]bool{}
	var walk func([]span)
	walk = func(ss []span) {
		for _, s := range ss {
			names[s.Name] = true
			walk(s.Children)
		}
	}
	walk(snap.Spans)
	for _, want := range []string{"gate.wait", "cache", "solve", "serialize"} {
		if !names[want] {
			t.Errorf("trace %s missing %q span: %s", reqID, want, data)
		}
	}
	if !strings.Contains(logBuf.String(), `"request_id":"`+reqID+`"`) {
		t.Errorf("structured log missing request_id %q:\n%s", reqID, logBuf.String())
	}

	// pprof: a 1-second CPU profile is a gzip stream (the pprof wire format).
	resp, data = do(t, http.MethodGet, base+"/debug/pprof/profile?seconds=1", "", "", nil)
	if resp.StatusCode != http.StatusOK || len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Errorf("pprof profile: status %d, %d bytes, not gzip", resp.StatusCode, len(data))
	}

	resp, data = do(t, http.MethodGet, base+"/metrics", "", "", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte("fpmd_requests_total")) {
		t.Errorf("scrape missing fpmd metrics (status %d)", resp.StatusCode)
	}
	if !bytes.Contains(data, []byte("go_goroutines")) {
		t.Error("scrape missing runtime metrics (go_goroutines)")
	}

	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "smoke.json")); err != nil {
		t.Fatalf("model not persisted: %v", err)
	}
}

// buildFpmd compiles the real binary once per test run for the process-level
// tests to spawn (the test binary itself would parse -test.* flags).
var buildOnce sync.Once
var builtExe string
var buildErr error

func buildFpmd(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fpmd-test-bin-*")
		if err != nil {
			buildErr = err
			return
		}
		builtExe = filepath.Join(dir, "fpmd")
		out, err := exec.Command("go", "build", "-o", builtExe, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			builtExe = string(out)
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build fpmd binary (%v: %s); skipping process-level test", buildErr, builtExe)
	}
	return builtExe
}

// pickPorts reserves n loopback addresses by binding and releasing them.
func pickPorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// memberModels returns the model generations a member reports in
// /cluster/v1/state (nil while it is not answering).
func memberModels(base string) map[string]uint64 {
	resp, err := http.Get(base + "/cluster/v1/state")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var st struct {
		Models []service.ModelInfo `json:"models"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return nil
	}
	gens := map[string]uint64{}
	for _, mi := range st.Models {
		gens[mi.ID] = mi.Gen
	}
	return gens
}

// TestClusterSmokeEndToEnd is the process-level cluster check: three
// children of the built binary, wired through the real -self/-peers flags,
// with real sockets and real SIGTERM drains. A model PUT to ONE member must
// be reported by all three at the same generation, every member must answer
// /v1/partition at that generation, and each child must exit 0 on SIGTERM.
func TestClusterSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 3 child processes")
	}
	exe := buildFpmd(t)
	addrs := pickPorts(t, 3)
	bases := make([]string, len(addrs))
	for i, a := range addrs {
		bases[i] = "http://" + a
	}
	cmds := make([]*exec.Cmd, len(addrs))
	logs := make([]*syncBuffer, len(addrs))
	for i, a := range addrs {
		logs[i] = &syncBuffer{}
		cmds[i] = exec.Command(exe, "-addr", a, "-self", bases[i], "-peers", strings.Join(bases, ","),
			"-models", t.TempDir(), "-drain-timeout", "30s")
		cmds[i].Stdout, cmds[i].Stderr = logs[i], logs[i]
		if err := cmds[i].Start(); err != nil {
			t.Fatalf("start member %s: %v", a, err)
		}
		t.Cleanup(func() { cmds[i].Process.Kill() }) // no-op once Wait has reaped it
	}
	await := func(what string, i int, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("member %s: %s; logs:\n%s", bases[i], what, logs[i])
			}
		}
	}
	for i := range bases {
		await("never became healthy", i, func() bool {
			resp, err := http.Get(bases[i] + "/healthz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
	}

	model, err := service.SyntheticModel(64, 500).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, http.MethodPut, bases[0]+"/v1/models/m1", "application/json", "", model)
	var put struct {
		Generation uint64 `json:"generation"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &put) != nil || put.Generation == 0 {
		t.Fatalf("PUT model via %s: %d %s", bases[0], resp.StatusCode, body)
	}
	for i := range bases {
		await(fmt.Sprintf("never saw m1@%d", put.Generation), i, func() bool {
			return memberModels(bases[i])["m1"] >= put.Generation
		})
	}
	for i, base := range bases {
		if g := memberModels(base)["m1"]; g != put.Generation {
			t.Errorf("member %s holds m1@%d, want %d", base, g, put.Generation)
		}
		resp, body := do(t, http.MethodPost, base+"/v1/partition", "application/json", "",
			[]byte(fmt.Sprintf(`{"models":["m1"],"n":%d}`, 10000+i)))
		var res struct {
			ModelGens []uint64 `json:"model_generations"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &res) != nil {
			t.Fatalf("partition via %s: %d %s", base, resp.StatusCode, body)
		}
		if len(res.ModelGens) != 1 || res.ModelGens[0] != put.Generation {
			t.Errorf("partition via %s answered generations %v, want [%d]", base, res.ModelGens, put.Generation)
		}
	}

	for i, cmd := range cmds {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("member %s exit after SIGTERM: %v; logs:\n%s", bases[i], err, logs[i])
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("member %s ignored SIGTERM for 15s; logs:\n%s", bases[i], logs[i])
		}
	}
}

// TestHalfConfiguredRingExitsOne runs the built binary with the two ring
// misconfigurations checkRing names: it must exit 1 with a one-line message
// instead of serving standalone or joining a ring it cannot reach.
func TestHalfConfiguredRingExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the fpmd binary")
	}
	exe := buildFpmd(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-addr", "127.0.0.1:0", "-peers", "http://127.0.0.1:1,http://127.0.0.1:2"}, "-self is not"},
		{[]string{"-addr", "127.0.0.1:0", "-self", "10.0.0.1:8081"}, `"10.0.0.1:8081"`},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(exe, tc.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Errorf("fpmd %v: err %v, want exit code 1", tc.args, err)
		}
		msg := strings.TrimSpace(stderr.String())
		if !strings.HasPrefix(msg, "fpmd: ") || !strings.Contains(msg, tc.want) || strings.Contains(msg, "\n") {
			t.Errorf("fpmd %v: stderr %q, want one line naming %s", tc.args, msg, tc.want)
		}
	}
}

// TestServeClusterSIGTERM covers the daemon serve path in cluster mode: a
// single-member cluster boots (anti-entropy before listen), answers its
// state route, then a real SIGTERM drains it.
func TestServeClusterSIGTERM(t *testing.T) {
	addr := pickPorts(t, 1)[0]
	self := "http://" + addr
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	cl, err := clusterd.New(clusterd.Options{Self: self, Peers: []string{self}, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{
		ModelDir:              t.TempDir(),
		Cluster:               cl,
		DisableRequestTracing: true,
		Logger:                logger,
	}
	done := make(chan error, 1)
	go func() {
		done <- serve(cfg, cl, addr, 10*time.Second, logger, 0)
	}()

	served := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && !served; time.Sleep(20 * time.Millisecond) {
		if resp, err := http.Get(self + "/cluster/v1/state"); err == nil {
			resp.Body.Close()
			served = resp.StatusCode == http.StatusOK
		}
	}
	if !served {
		t.Fatal("cluster serve never answered /cluster/v1/state")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve did not drain after SIGTERM")
	}
}
