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

	"fpmpart/internal/matrix"
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

	// Its own transport, closed on return: a connection to the hostile
	// server must not idle in a pool other tests share.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	var read atomic.Int64
	client := &http.Client{Transport: countingTransport{base: tr, n: &read}}
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

// skipUnderRace skips allocation tests under the race detector, which drops
// sync.Pool entries at random, so the kernel's panels are reallocated.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector drops sync.Pool entries at random, so panels are reallocated")
			}
		}
	}
}

// minAllocs runs f in several windows of calls, with the collector off, and
// returns the fewest bytes and allocations a call made in any window.
// MemStats counts the whole process, and goroutines an earlier test left
// running only add to it, so the minimum is the closest reading of f's own.
func minAllocs(f func()) (bytesPer uint64, allocsPer float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const windows, calls = 5, 8
	bytesPer, allocsPer = math.MaxUint64, math.Inf(1)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		bytesPer = min(bytesPer, (after.TotalAlloc-before.TotalAlloc)/calls)
		allocsPer = min(allocsPer, float64(after.Mallocs-before.Mallocs)/calls)
	}
	return bytesPer, allocsPer
}

// A shard allocates its band of C and nothing else of size: its operands are
// generated into the kernel's pooled panels. This is exec-small's fast
// shard at one thread; at the parent of this test it allocated A's band and
// all of B beside C, about 675 KB a call.
func TestShardAllocatesOnlyC(t *testing.T) {
	skipUnderRace(t)
	req := &ShardRequest{Job: "a", Seed: 1, Rows: 256, K: 256, N: 256, Row0: 64, Row1: 256}
	run := func() {
		if _, _, err := executeGemm(req, 1); err != nil {
			t.Fatal(err)
		}
	}
	run() // fills the panel pool
	bytesPer, allocsPer := minAllocs(run)
	if limit := uint64(4*192*256 + 32<<10); bytesPer > limit {
		t.Errorf("shard allocates %d bytes a call, want at most %d (its C band plus 32 KiB)", bytesPer, limit)
	}
	if allocsPer > 4 {
		t.Errorf("shard makes %.1f allocations a call, want at most 4", allocsPer)
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body.
type discardWriter struct{ header http.Header }

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// A shard that ships its band allocates the band once, as C, and streams it
// out: encoding the band whole, as the worker once did, costs a second copy
// of it plus a base64 buffer of 4/3 of it.
func TestShippingShardAllocatesUnderTwoBands(t *testing.T) {
	skipUnderRace(t)
	w, err := NewWorker(WorkerOptions{Name: "s", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Handler()
	req := ShardRequest{Job: "s", Seed: 1, Rows: 256, K: 256, N: 256, Row0: 64, Row1: 256, ReturnResult: true}
	body, _ := json.Marshal(&req)
	run := func() {
		rw := &discardWriter{header: http.Header{}}
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, ShardPath, bytes.NewReader(body)))
		if got := rw.header.Get("Content-Length"); got == "" {
			t.Fatal("shipping shard failed: no Content-Length")
		}
	}
	run() // fills the panel pool
	band := uint64(bandBytes(req.Row1-req.Row0, req.N))
	bytesPer, _ := minAllocs(run)
	t.Logf("shipping shard: %d bytes a call for a %d-byte band", bytesPer, band)
	if bytesPer >= 2*band {
		t.Errorf("shipping shard allocates %d bytes a call, want under %d (twice its %d-byte band)", bytesPer, 2*band, band)
	}
}

// The streamed answer of a shipping shard is byte for byte what
// json.Encoder writes for the same response with the band in Result, and
// its Content-Length is its length; also for a strided band.
func TestShippedResponseMatchesEncoder(t *testing.T) {
	c, _, err := executeGemm(&ShardRequest{Job: "e", Seed: 9, Rows: 40, K: 16, N: 33, Row0: 3, Row1: 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	view, err := c.View(2, 5, 20, 17)
	if err != nil {
		t.Fatal(err)
	}
	for name, band := range map[string]*matrix.Dense{"compact": c, "strided": view} {
		resp := ShardResponse{Job: "e<&>", Worker: "w", Row0: 3, Row1: 40, Seconds: 0.125, Checksum: bandChecksum(band)}
		rec := httptest.NewRecorder()
		if err := writeShipped(rec, &resp, band); err != nil {
			t.Fatal(err)
		}
		resp.Result = encodeBand(band)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: streamed %q, json.Encoder %q", name, rec.Body, want.Bytes())
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
			t.Errorf("%s: Content-Length %s, body %d bytes", name, got, want.Len())
		}
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
