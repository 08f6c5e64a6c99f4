package workerd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpmpart/internal/faults"
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

// A slowed shard waits out its fault plan's delay in full and reports the
// planned seconds, factor × its measured compute, not the time it waited.
// Round 0 runs at full speed, round 1 under the plan's factor.
func TestSlowShardWaitsThePlannedSeconds(t *testing.T) {
	const factor = 20
	spec, err := faults.ParseSpec("slow:dev=0,iter=1,factor=20")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerOptions{Name: "s", Workers: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Handler()
	run := func(round int) (reported, wall float64) {
		t.Helper()
		body := `{"job":"s","seed":3,"rows":128,"k":128,"n":128,"row0":0,"row1":128,"round":` + strconv.Itoa(round) + `}`
		start := time.Now()
		rec := postShard(h, body)
		wall = time.Since(start).Seconds()
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, rec.Code, rec.Body)
		}
		var resp ShardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Seconds, wall
	}
	fast, slow := math.Inf(1), math.Inf(1)
	for i := 0; i < 5; i++ {
		s0, _ := run(0)
		s1, wall := run(1)
		if wall < s1 {
			t.Fatalf("slowed shard reported %.6f s but its handler took %.6f s: the delay came up short", s1, wall)
		}
		fast, slow = min(fast, s0), min(slow, s1)
	}
	// One call's compute varies from the next; the fastest of five per round
	// stays well within a factor of four of the planned ratio.
	r := slow / fast
	t.Logf("slowed %.6f s, unslowed %.6f s: %.1f×", slow, fast, r)
	if r < factor/4 || r > factor*4 {
		t.Fatalf("slowed shard reported %.6f s against %.6f s unslowed (%.1f×), want about %d×", slow, fast, r, factor)
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

// FuzzShardResponse: whatever a worker answers, the executor's check never
// panics, and a band it accepts has the asked band's rows, the asked
// length, and the CRC-32C it claims.
func FuzzShardResponse(f *testing.F) {
	good := func(ship bool) []byte {
		resp := ShardResponse{Job: "f", Worker: "w", Row0: 2, Row1: 5, Seconds: 0.5}
		if ship {
			resp.Result = bytes.Repeat([]byte{1, 2, 3, 4}, 3*4)
			resp.Checksum = checksumBytes(resp.Result)
		}
		b, _ := json.Marshal(&resp)
		return b
	}
	for _, seed := range [][]byte{
		good(false), good(true),
		[]byte(`{"row0":2,"row1":5,"seconds":-1}`),
		[]byte(`{"row0":2,"row1":5,"seconds":1e999}`),
		[]byte(`{"row0":2,"row1":5,"checksum":0,"result":"AAAA"}`),
		[]byte(`{"row0":0,"row1":5}`),
		[]byte(`{"result":"!!"}`), []byte(`[]`), []byte(`null`), []byte(``), []byte(`{`),
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, body []byte, ship bool) {
		sr := &ShardRequest{Job: "f", Seed: 1, Rows: 8, K: 4, N: 4, Row0: 2, Row1: 5, ReturnResult: ship}
		out, err := readShardResponse(bytes.NewReader(body), sr)
		if err != nil {
			return
		}
		if out.Row0 != sr.Row0 || out.Row1 != sr.Row1 {
			t.Fatalf("accepted band [%d,%d), asked [%d,%d)", out.Row0, out.Row1, sr.Row0, sr.Row1)
		}
		if out.Seconds < 0 || math.IsNaN(out.Seconds) || math.IsInf(out.Seconds, 0) {
			t.Fatalf("accepted seconds %v", out.Seconds)
		}
		if !ship {
			return
		}
		if len(out.Result) != bandBytes(sr.Row1-sr.Row0, sr.N) {
			t.Fatalf("accepted a %d-byte band, asked %d", len(out.Result), bandBytes(sr.Row1-sr.Row0, sr.N))
		}
		if checksumBytes(out.Result) != out.Checksum {
			t.Fatal("accepted a band whose CRC is not the claimed checksum")
		}
	})
}

// FuzzExecuteRequest: whatever the /v1/execute body, decoding it as
// service's handler does and normalizing it never panics; a request that
// normalizes has positive dimensions within the operand bound, 1..10000
// rounds, a nonzero seed, a known strategy and no worker named twice, and
// normalizes to itself again. An executor with no workers refuses it.
func FuzzExecuteRequest(f *testing.F) {
	for _, seed := range []string{
		`{"rows":64}`,
		`{"rows":64,"n":32,"k":16,"rounds":3,"seed":-5,"partition":"even","verify":true,"workers":["a","b"]}`,
		`{"rows":1048576,"k":1048576,"n":1048576}`,
		`{"rows":9223372036854775807}`,
		`{"rows":16,"rounds":10001}`,
		`{"rows":16,"partition":"cpm"}`,
		`{"rows":16,"workers":[]}`, `{"rows":16,"workers":["b","a","b"]}`, `{"rows":-1}`, `{"rows":16,"kind":"stencil"}`,
		`[]`, `null`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}
	models := newMapModels()
	e := NewExecutor(NewPool(models, PoolOptions{TTL: time.Minute}), models, nil, ExecutorOptions{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ExecuteRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		if _, err := e.Execute(context.Background(), req); err == nil {
			t.Fatalf("executor with no workers ran %q", body)
		}
		if req.normalize() != nil {
			return
		}
		if req.Rows <= 0 || req.N <= 0 || req.K <= 0 || checkOperands(req.Rows, req.K, req.N) != nil {
			t.Fatalf("normalized %q to dimensions %d×%d×%d", body, req.Rows, req.K, req.N)
		}
		if req.Rounds < 1 || req.Rounds > 10000 || req.Seed == 0 ||
			(req.Partition != PartitionFPM && req.Partition != PartitionEven) {
			t.Fatalf("normalized %q to %+v", body, req)
		}
		for i := 1; i < len(req.Workers); i++ {
			if req.Workers[i] == req.Workers[i-1] {
				t.Fatalf("normalized %q with worker %q named twice", body, req.Workers[i])
			}
		}
		again := req
		if err := again.normalize(); err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("normalizing %+v again gave %+v, %v", req, again, err)
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

// An unshipped shard allocates one block of C and nothing else of size: its
// operands are generated into the kernel's pooled panels and its checksum is
// folded block by block. The shard is 2 500×512×512 at one thread, about
// 2.4 blocks; whole, its band of C is 5.1 MB. Its compute path, the block
// loop with the checksum fold, makes at most 4 allocations; the handler's
// decode, request and answer add about 30.
func TestShardAllocatesOnlyC(t *testing.T) {
	skipUnderRace(t)
	w, err := NewWorker(WorkerOptions{Name: "a", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := w.Handler()
	req := ShardRequest{Job: "a", Seed: 1, Rows: 3000, K: 512, N: 512, Row0: 300, Row1: 2800}
	body, _ := json.Marshal(&req)
	serve := func() {
		rw := &discardWriter{header: http.Header{}}
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, ShardPath, bytes.NewReader(body)))
		if rw.code != http.StatusOK {
			t.Fatalf("shard failed: status %d", rw.code)
		}
	}
	compute := func() {
		var sum uint32
		if _, err := gemmBlocks(&req, 1, nil, func(blk *matrix.Dense) { sum = updateChecksum(sum, blk) }); err != nil {
			t.Fatal(err)
		}
	}
	serve() // fills the panel pool
	block := uint64(bandBytes(blockRows, req.N) + 32<<10)
	bytesPer, allocsPer := minAllocs(serve)
	t.Logf("shard: %d bytes, %.1f allocations a call", bytesPer, allocsPer)
	if bytesPer > block {
		t.Errorf("shard allocates %d bytes a call, want at most %d (one %d-row block of C plus 32 KiB)", bytesPer, block, blockRows)
	}
	if allocsPer > 40 {
		t.Errorf("shard makes %.1f allocations a call, want at most 40", allocsPer)
	}
	bytesPer, allocsPer = minAllocs(compute)
	t.Logf("block loop: %d bytes, %.1f allocations a call", bytesPer, allocsPer)
	if bytesPer > block {
		t.Errorf("block loop allocates %d bytes a call, want at most %d", bytesPer, block)
	}
	if allocsPer > 4 {
		t.Errorf("block loop makes %.1f allocations a call, want at most 4", allocsPer)
	}
}

// discardWriter is a ResponseWriter that keeps nothing of the body but its
// status.
type discardWriter struct {
	header http.Header
	code   int
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	return len(p), nil
}
func (d *discardWriter) WriteHeader(code int) { d.code = code }

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
	c := shardBand(t, &ShardRequest{Job: "e", Seed: 9, Rows: 40, K: 16, N: 33, Row0: 3, Row1: 40}, 1)
	view, err := c.View(2, 5, 20, 17)
	if err != nil {
		t.Fatal(err)
	}
	for name, band := range map[string]*matrix.Dense{"compact": c, "strided": view} {
		resp := ShardResponse{Job: "e<&>", Worker: "w", Row0: 3, Row1: 40, Seconds: 0.125, Checksum: updateChecksum(0, band)}
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

// BenchmarkShard times one unshipped shard of the exec-small job as its
// fast worker runs it (rows 64..256 of a 256³ GEMM), operand generation,
// checksum and all.
func BenchmarkShard(b *testing.B) {
	req := &ShardRequest{Job: "b", Seed: 1, Rows: 256, K: 256, N: 256, Row0: 64, Row1: 256}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sum uint32
		if _, err := gemmBlocks(req, 1, nil, func(blk *matrix.Dense) { sum = updateChecksum(sum, blk) }); err != nil {
			b.Fatal(err)
		}
		benchSum = sum
	}
}

var benchSum uint32
