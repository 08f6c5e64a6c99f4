package workerd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// postShard drives the worker's handler in-process.
func postShard(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ShardPath, strings.NewReader(body)))
	return rec
}

// The checksum a shard carries when its band stays on the worker is the
// checksum of the band the same shard ships when asked to.
func TestShardChecksumShippedOrNot(t *testing.T) {
	w, err := NewWorker(WorkerOptions{Name: "c", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Handler()
	req := ShardRequest{Job: "c", Seed: 4, Rows: 90, K: 24, N: 40, Row0: 30, Row1: 75}
	answers := map[bool]ShardResponse{}
	for _, ship := range []bool{false, true} {
		req.ReturnResult = ship
		body, _ := json.Marshal(&req)
		rec := postShard(h, string(body))
		if rec.Code != http.StatusOK {
			t.Fatalf("ship=%t: status %d: %s", ship, rec.Code, rec.Body)
		}
		var resp ShardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		answers[ship] = resp
	}
	if r := answers[false].Result; r != nil {
		t.Fatalf("non-shipping shard carried a %d-byte band", len(r))
	}
	shipped := answers[true].Result
	if len(shipped) != bandBytes(req.Row1-req.Row0, req.N) {
		t.Fatalf("shipped band is %d bytes, want %d", len(shipped), bandBytes(req.Row1-req.Row0, req.N))
	}
	if got, want := answers[false].Checksum, checksumBytes(shipped); got != want {
		t.Fatalf("non-shipping checksum %08x, checksum of the shipped band %08x", got, want)
	}
	if answers[true].Checksum != answers[false].Checksum {
		t.Fatal("shipping changed the checksum")
	}
}

// oversizedShard allocated 2^40 floats of A at the parent: a runtime
// out-of-memory error no worker survives.
const oversizedShard = `{"rows":1048576,"k":1048576,"n":1,"row0":0,"row1":1}`

func TestOversizedShardRejected(t *testing.T) {
	w, err := NewWorker(WorkerOptions{Name: "o", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Handler()
	big := strconv.Itoa(math.MaxInt)
	for _, body := range []string{
		oversizedShard,
		`{"rows":16,"k":16,"n":268435457,"row0":0,"row1":1}`,
		// Products that overflow int must not wrap into a small shape.
		`{"rows":` + big + `,"k":` + big + `,"n":` + big + `,"row0":0,"row1":2}`,
		`{"rows":4294967296,"k":4294967296,"n":4,"row0":0,"row1":1}`,
	} {
		if rec := postShard(h, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
	// The worker keeps serving.
	if rec := postShard(h, `{"seed":1,"rows":8,"k":4,"n":4,"row0":0,"row1":8}`); rec.Code != http.StatusOK {
		t.Fatalf("worker stopped serving after oversized shards: status %d: %s", rec.Code, rec.Body)
	}
	// A job of the largest allowed shape is not rejected by the bound.
	if err := checkOperands(1<<14, 1<<14, 1<<14); err != nil {
		t.Errorf("2^14-cubed job rejected: %v", err)
	}
}

// A worker that answers with more than the shard's response can hold gets
// an error after a bounded read, not a stalled or oversized one.
func TestSendShardBoundsResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(rw, `{"job":"`)
		chunk := bytes.Repeat([]byte("A"), 32<<10)
		for i := 0; i < 2048; i++ { // up to 64 MiB, unless the client hangs up
			if _, err := rw.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	var read atomic.Int64
	client := &http.Client{Transport: countingTransport{base: http.DefaultTransport, n: &read}}
	e := &Executor{opts: ExecutorOptions{client: client}.withDefaults()}
	for _, ship := range []bool{false, true} {
		read.Store(0)
		sr := &ShardRequest{Job: "h", Seed: 1, Rows: 64, K: 8, N: 64, Row0: 0, Row1: 64, ReturnResult: ship}
		if _, err := e.sendShard(context.Background(), WorkerInfo{Name: "hostile", URL: srv.URL}, sr); err == nil {
			t.Fatalf("ship=%t: oversized response decoded without error", ship)
		}
		if got, limit := read.Load(), maxShardResponse(sr); got > limit {
			t.Fatalf("ship=%t: read %d response bytes, bound %d", ship, got, limit)
		}
	}
}

// countingTransport counts the response body bytes its caller reads.
type countingTransport struct {
	base http.RoundTripper
	n    *atomic.Int64
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// FuzzShardRequest: whatever the body, the worker answers 200 or 400,
// without panicking and without allocating past the operand bound.
func FuzzShardRequest(f *testing.F) {
	for _, seed := range []string{
		`{"job":"f","seed":1,"rows":8,"k":4,"n":4,"row0":0,"row1":8}`,
		`{"seed":-3,"rows":10,"k":4,"n":6,"row0":2,"row1":9,"round":1,"return_result":true}`,
		oversizedShard,
		`{"rows":9223372036854775807,"k":9223372036854775807,"n":2,"row0":0,"row1":1}`,
		`{"kind":"stencil","rows":10,"k":4,"n":4,"row0":0,"row1":5}`,
		`{"rows":10,"k":4,"n":4,"row0":5,"row1":5}`,
		`{"rows":1e3}`, `[]`, `null`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}
	w, err := NewWorker(WorkerOptions{Name: "fuzz", Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	h := w.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		// A valid shard too big to multiply per fuzz input is a kernel
		// benchmark, not a decoder case.
		var req ShardRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && req.Validate() == nil {
			band := req.Row1 - req.Row0
			if band*req.K+req.K*req.N+band*req.N > 1<<16 {
				t.Skip("valid shard too large to run per input")
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := postShard(h, string(body))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		// Operands are ≤2^16 elements here, so a few MiB covers any answer;
		// an allocation of the bound's size (2^28 floats) is 1 GiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
			t.Fatalf("handler allocated %d bytes for %q", grew, body)
		}
	})
}

// A shard allocates its band of C and nothing else of size: its operands are
// generated into the kernel's pooled panels. This is exec-small's fast
// shard at one thread; at the parent of this test it allocated A's band and
// all of B beside C, about 675 KB a call.
func TestShardAllocatesOnlyC(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector drops sync.Pool entries at random, so panels are reallocated")
			}
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	req := &ShardRequest{Job: "a", Seed: 1, Rows: 256, K: 256, N: 256, Row0: 64, Row1: 256}
	run := func() {
		if _, _, err := executeGemm(req, 1); err != nil {
			t.Fatal(err)
		}
	}
	run() // fills the panel pool
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / calls
	allocsPer := float64(after.Mallocs-before.Mallocs) / calls
	if limit := uint64(4*192*256 + 32<<10); bytesPer > limit {
		t.Errorf("shard allocates %d bytes a call, want at most %d (its C band plus 32 KiB)", bytesPer, limit)
	}
	if allocsPer > 4 {
		t.Errorf("shard makes %.1f allocations a call, want at most 4", allocsPer)
	}
}

// BenchmarkExecuteGemmShard times one shard of the exec-small job as its
// fast worker runs it (rows 64..256 of a 256³ GEMM), operand generation,
// checksum and all.
func BenchmarkExecuteGemmShard(b *testing.B) {
	req := &ShardRequest{Job: "b", Seed: 1, Rows: 256, K: 256, N: 256, Row0: 64, Row1: 256}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _, err := executeGemm(req, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchSum = bandChecksum(c)
	}
}

var benchSum uint32
