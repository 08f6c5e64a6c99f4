// Command fpmworker is one worker process of the distributed execution
// backend: it self-calibrates a functional performance model of its local
// packed GEMM kernel, registers with an fpmd coordinator (POST /v1/workers,
// which probes this process's /healthz once and publishes the model),
// heartbeats to stay live, and executes the shards POST /v1/execute
// dispatches to it — streaming measured per-shard timings back so the
// coordinator's refinement loop converges the served model on reality.
//
// Usage:
//
//	fpmworker -name w1 -fpmd http://127.0.0.1:8080 -addr 127.0.0.1:0
//
// Heterogeneity for experiments comes from -fault-spec (internal/faults
// grammar, keyed on the shard's round as the iteration):
//
//	fpmworker -name slow1 -fpmd ... -fault-spec 'slow:dev=0,iter=0,factor=3'
//	fpmworker -name doomed -fpmd ... -fault-spec 'crash:dev=0,iter=5'
//
// A crash fault exits the process for real (exit code 3), which is what
// TestWorkersEndToEnd's mid-run kill recovery exercises.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fpmpart/internal/cliutil"
	"fpmpart/internal/faults"
	"fpmpart/internal/telemetry"
	"fpmpart/internal/workerd"
)

func main() {
	var (
		name      = flag.String("name", "", "worker name (doubles as its model id on the coordinator); required")
		fpmd      = flag.String("fpmd", "http://127.0.0.1:8080", "coordinator base URL")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address for the worker API")
		advertise = flag.String("advertise", "", "base URL the coordinator should dial back (default http://<bound addr>)")
		workers   = flag.Int("workers", 0, "kernel parallelism for shard execution (0 = GOMAXPROCS)")
		heartbeat = flag.Duration("heartbeat", time.Second, "heartbeat interval")
		regTO     = flag.Duration("register-timeout", 30*time.Second, "how long to retry the initial registration")
		faultSpec = flag.String("fault-spec", "", "fault plan (internal/faults grammar, dev=0, iter = execute round): e.g. 'slow:dev=0,iter=0,factor=3'")
		faultSeed = flag.Int64("fault-seed", 1, "seed for fault plan randomness (stall lengths, factors)")
		calBands  = flag.String("calib-bands", "16,32,64,128,256,384,512", "comma-separated row-band sizes the self-calibration times")
		calK      = flag.Int("calib-k", 256, "self-calibration gemm depth")
		calN      = flag.Int("calib-n", 256, "self-calibration gemm width")
	)
	var logFlags cliutil.LogFlags
	logFlags.Register()
	flag.Parse()
	telemetry.Default().SetEnabled(true)

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	if err := run(*name, *fpmd, *addr, *advertise, *workers, *heartbeat, *regTO,
		*faultSpec, *faultSeed, *calBands, *calK, *calN, logger); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpmworker:", err)
	os.Exit(1)
}

func run(name, fpmd, addr, advertise string, workers int, heartbeat, regTO time.Duration,
	faultSpec string, faultSeed int64, calBands string, calK, calN int, logger *slog.Logger) error {
	if name == "" {
		return fmt.Errorf("-name is required")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	spec, err := faults.ParseSpec(faultSpec)
	if err != nil {
		return fmt.Errorf("parse -fault-spec: %w", err)
	}
	inj, err := faults.NewInjector(spec, faultSeed)
	if err != nil {
		return err
	}
	bands, err := parseBands(calBands)
	if err != nil {
		return fmt.Errorf("parse -calib-bands: %w", err)
	}

	w, err := workerd.NewWorker(workerd.WorkerOptions{
		Name:    name,
		Workers: workers,
		Faults:  inj,
		// A planned crash must look like a real process death to the
		// coordinator: no drain, no deregistration, just gone.
		CrashFn: func() { os.Exit(3) },
		Logger:  logger,
	})
	if err != nil {
		return err
	}
	bound, shutdown, err := w.Serve(addr)
	if err != nil {
		return err
	}
	self := advertise
	if self == "" {
		self = "http://" + bound
	}
	logger.Info("worker listening", slog.String("addr", bound), slog.String("advertise", self))

	logger.Info("self-calibrating", slog.String("bands", calBands),
		slog.Int("k", calK), slog.Int("n", calN), slog.Int("workers", workers))
	pl, err := workerd.SelfCalibrate(bands, calK, calN, workers)
	if err != nil {
		return fmt.Errorf("self-calibration: %w", err)
	}
	model, err := pl.MarshalJSON()
	if err != nil {
		return err
	}
	reg := workerd.Registration{Name: name, URL: self, Cores: workers, Model: model}

	client := &http.Client{Timeout: 10 * time.Second}
	if err := register(client, fpmd, reg, regTO, logger); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			stop()
			logger.Info("draining")
			deregister(client, fpmd, name)
			dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			return shutdown(dctx)
		case <-tick.C:
			status, err := post(client, fpmd+"/v1/workers/"+name+"/heartbeat", nil)
			switch {
			case err != nil:
				logger.Warn("heartbeat failed", slog.String("error", err.Error()))
			case status == http.StatusNotFound:
				// Coordinator restarted and lost the pool: re-register.
				logger.Info("coordinator forgot us; re-registering")
				if err := register(client, fpmd, reg, regTO, logger); err != nil {
					logger.Warn("re-registration failed", slog.String("error", err.Error()))
				}
			case status != http.StatusOK:
				logger.Warn("heartbeat rejected", slog.Int("status", status))
			}
		}
	}
}

// register posts the registration, retrying until the coordinator is up or
// the timeout lapses (workers and coordinator typically start together).
func register(client *http.Client, fpmd string, reg workerd.Registration, timeout time.Duration, logger *slog.Logger) error {
	body, err := json.Marshal(&reg)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		status, err := post(client, fpmd+"/v1/workers", body)
		if err == nil && status == http.StatusOK {
			logger.Info("registered", slog.String("fpmd", fpmd), slog.String("name", reg.Name))
			return nil
		}
		if err == nil {
			lastErr = fmt.Errorf("registration rejected: status %d", status)
			// 4xx are definitive (bad name, unreachable advertise URL).
			if status >= 400 && status < 500 && status != http.StatusTooManyRequests {
				return lastErr
			}
		} else {
			lastErr = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("registration timed out: %w", lastErr)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

func deregister(client *http.Client, fpmd, name string) {
	req, err := http.NewRequest(http.MethodDelete, fpmd+"/v1/workers/"+name, nil)
	if err != nil {
		return
	}
	if resp, err := client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func post(client *http.Client, url string, body []byte) (int, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func parseBands(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no band sizes")
	}
	return out, nil
}
