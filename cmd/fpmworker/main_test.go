package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fpmpart/internal/refine"
	"fpmpart/internal/service"
	"fpmpart/internal/workerd"
)

// workerProc is one spawned fpmworker child.
type workerProc struct {
	cmd     *exec.Cmd
	logPath string        // the child's stdout+stderr
	done    chan struct{} // closed once cmd.Wait has returned
}

// logs returns what the child has printed so far, for failure messages.
func (w *workerProc) logs() string {
	data, _ := os.ReadFile(w.logPath)
	return string(data)
}

// startWorker launches the built fpmworker against the coordinator with a
// small calibration ladder and waits until the pool lists it alive
// (registration includes the child's self-calibration).
func startWorker(t *testing.T, bin, name, fpmdURL, faultSpec string, s *service.Server) *workerProc {
	t.Helper()
	args := []string{
		"-name", name, "-fpmd", fpmdURL, "-addr", "127.0.0.1:0", "-heartbeat", "250ms",
		"-calib-bands", "32,64,128,256", "-calib-k", "128", "-calib-n", "128",
	}
	if faultSpec != "" {
		args = append(args, "-fault-spec", faultSpec)
	}
	logFile, err := os.Create(filepath.Join(t.TempDir(), name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close() // the child keeps its own descriptor
	w := &workerProc{cmd: exec.Command(bin, args...), logPath: logFile.Name(), done: make(chan struct{})}
	w.cmd.Stdout, w.cmd.Stderr = logFile, logFile
	if err := w.cmd.Start(); err != nil {
		t.Fatalf("start worker %s: %v", name, err)
	}
	go func() { w.cmd.Wait(); close(w.done) }()
	t.Cleanup(func() {
		w.cmd.Process.Kill()
		<-w.done
	})
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		for _, wi := range s.WorkerPool().Alive() {
			if wi.Name == name {
				return w
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never registered; logs:\n%s", name, w.logs())
		}
	}
}

// waitExit reports whether the worker process exited within timeout.
func (w *workerProc) waitExit(timeout time.Duration) bool {
	select {
	case <-w.done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// postExecute drives one job through POST /v1/execute.
func postExecute(t *testing.T, base string, req workerd.ExecuteRequest) *workerd.ExecuteReport {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{Timeout: 5 * time.Minute}).Post(base+"/v1/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: status %d err %v: %s", resp.StatusCode, err, data)
	}
	rep := new(workerd.ExecuteReport)
	if err := json.Unmarshal(data, rep); err != nil {
		t.Fatalf("execute response: %v: %s", err, data)
	}
	return rep
}

// TestWorkersEndToEnd is the process-level check of the distributed
// execution backend: an in-process coordinator (workers + observe) on a real
// port, real fpmworker children against it, driven over the public HTTP
// surface.
//
//  1. A two-worker fleet, one fault-slowed 3x from round 0, runs a verified
//     GEMM under FPM and under even partitioning. The slowdown is invisible
//     to self-calibration, so the coordinator has to learn it: the slow
//     worker's model generation must advance, no round may partition against
//     an older generation than an earlier round did, and both results must
//     be bit-exact.
//  2. A third worker with a planned crash dies for real (exit code 3) while
//     its round-1 shard is in flight. The coordinator must mark it dead,
//     re-partition the residual among survivors and stay bit-exact.
//  3. SIGTERM to a live worker deregisters it before it exits.
//
// How much faster FPM is than the even split is a measurement, not a check:
// see workerd.fpm_over_even_x in benchmark/.
func TestWorkersEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fpmworker and spawns 3 child processes")
	}
	bin := filepath.Join(t.TempDir(), "fpmworker")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Skipf("cannot build fpmworker (%v: %s)", err, out)
	}

	// Aggressive refinement so per-round shard timings shift upcoming
	// partitions: a worker contributes one timing per round, so a two-sample
	// bucket window (two is the estimator's floor) publishes from the second
	// round a size bucket is seen.
	s, err := service.New(service.Config{
		EnableWorkers: true,
		EnableObserve: true,
		Refine:        refine.Config{MinSamples: 2, MaxSamplesPerBucket: 2, Cooldown: time.Millisecond},
		WorkerTTL:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bound, drain, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drain(dctx)
	}()
	base := "http://" + bound

	fast := startWorker(t, bin, "fast", base, "", s)
	startWorker(t, bin, "slow", base, "slow:dev=0,iter=0,factor=3", s)
	slowBefore, err := s.Models.Get("slow")
	if err != nil {
		t.Fatalf("slow worker model not published: %v", err)
	}

	job := workerd.ExecuteRequest{
		Rows: 768, K: 256, N: 256,
		Seed: 7, Verify: true, Workers: []string{"fast", "slow"},
	}
	fpmJob := job
	fpmJob.Partition, fpmJob.Rounds = workerd.PartitionFPM, 6
	fpmRep := postExecute(t, base, fpmJob)
	if !fpmRep.Verified || !fpmRep.BitExact {
		t.Errorf("fpm job not bit-exact (max abs diff %g)", fpmRep.MaxAbsDiff)
	}
	evenJob := job
	evenJob.Partition, evenJob.Rounds = workerd.PartitionEven, 2
	evenRep := postExecute(t, base, evenJob)
	if !evenRep.Verified || !evenRep.BitExact {
		t.Error("even job not bit-exact")
	}

	slowAfter, err := s.Models.Get("slow")
	if err != nil {
		t.Fatal(err)
	}
	if slowAfter.Gen <= slowBefore.Gen {
		t.Errorf("slow worker's model never refined: generation %d -> %d", slowBefore.Gen, slowAfter.Gen)
	}
	lastGen := map[string]uint64{}
	for _, rd := range append(fpmRep.Detail, evenRep.Detail...) {
		for name, gen := range rd.ModelGens {
			if gen < lastGen[name] {
				t.Errorf("round %d partitioned %s at generation %d after an earlier round used %d", rd.Round, name, gen, lastGen[name])
			}
			lastGen[name] = gen
		}
	}

	// Mid-run kill: doomed serves round 0, then its process exits while its
	// round-1 shard is in flight.
	doomed := startWorker(t, bin, "doomed", base, "crash:dev=0,iter=1", s)
	killJob := job
	killJob.Partition, killJob.Rounds = workerd.PartitionFPM, 3
	killJob.Workers = []string{"fast", "slow", "doomed"}
	killRep := postExecute(t, base, killJob)
	if len(killRep.Deaths) != 1 || killRep.Deaths[0] != "doomed" {
		t.Errorf("deaths %v, want exactly [doomed]", killRep.Deaths)
	}
	repartitions := 0
	for _, rd := range killRep.Detail {
		repartitions += rd.Repartitions
	}
	if repartitions == 0 {
		t.Error("residual was never re-partitioned among survivors")
	}
	if !killRep.Verified || !killRep.BitExact {
		t.Error("result not bit-exact after recovery")
	}
	if !doomed.waitExit(10 * time.Second) {
		t.Errorf("doomed worker still running after its crash fault; logs:\n%s", doomed.logs())
	} else if code := doomed.cmd.ProcessState.ExitCode(); code != 3 {
		t.Errorf("doomed exit code %d, want 3 (crash fault)", code)
	}
	for _, wi := range s.WorkerPool().List() {
		if wi.Name == "doomed" && wi.Alive {
			t.Error("pool still lists doomed as alive")
		}
	}

	// Graceful exit: SIGTERM makes a live worker deregister, then exit 0.
	if err := fast.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if !fast.waitExit(15 * time.Second) {
		t.Fatalf("fast worker ignored SIGTERM; logs:\n%s", fast.logs())
	}
	if code := fast.cmd.ProcessState.ExitCode(); code != 0 {
		t.Errorf("fast worker exit code %d after SIGTERM, want 0; logs:\n%s", code, fast.logs())
	}
	resp, err := http.Get(base + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listed struct {
		Workers []workerd.WorkerInfo `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	for _, wi := range listed.Workers {
		if wi.Name == "fast" {
			t.Errorf("GET /v1/workers still lists fast after its SIGTERM exit: %+v", wi)
		}
	}
}

// Registration and heartbeats keep one connection to the coordinator: after
// a warm-up registration, repeated registrations and heartbeats — accepted
// or answered 404 by a coordinator that forgot the worker — open no new
// connection.
func TestRegisterAndHeartbeatReuseConnection(t *testing.T) {
	var accepted atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"name":"w1","alive":true}`)
	})
	mux.HandleFunc("POST /v1/workers/w1/heartbeat", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"ok":true}`)
	})
	mux.HandleFunc("POST /v1/workers/gone/heartbeat", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"unknown worker"}`, http.StatusNotFound)
	})
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := workerd.Registration{Name: "w1", URL: "http://w1.invalid", Cores: 1, Model: []byte(`{}`)}
	for i := 0; i < 6; i++ {
		if i == 1 {
			accepted.Store(0) // the first round was the warm-up
		}
		if err := register(client, srv.URL, reg, time.Second, logger); err != nil {
			t.Fatalf("register: %v", err)
		}
		for name, want := range map[string]int{"w1": http.StatusOK, "gone": http.StatusNotFound} {
			if status, err := post(client, srv.URL+"/v1/workers/"+name+"/heartbeat", nil); err != nil || status != want {
				t.Fatalf("heartbeat %s: status %d, error %v; want %d", name, status, err, want)
			}
		}
	}
	if got := accepted.Load(); got != 0 {
		t.Errorf("coordinator accepted %d new connections over 5 rounds after warm-up, want 0", got)
	}
}
