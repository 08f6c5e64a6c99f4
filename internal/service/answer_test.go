package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fpmpart/internal/partition"
)

// partitionResponse is the wire form of a partition answer: what the tests
// decode, and what encoding/json encodes for the equality tests against
// appendAnswer.
type partitionResponse struct {
	Total        int             `json:"total"`
	Devices      []deviceShare   `json:"devices"`
	Iterations   int             `json:"iterations"`
	Converged    bool            `json:"converged"`
	Imbalance    *float64        `json:"imbalance,omitempty"`
	SolveSeconds float64         `json:"solve_seconds"`
	Cached       bool            `json:"cached"`
	Coalesced    bool            `json:"coalesced,omitempty"`
	Layout       *layoutResponse `json:"layout,omitempty"`
	// ModelGens pins each requested model to the generation the solve used,
	// in request order.
	ModelGens []uint64 `json:"model_generations,omitempty"`
	// Origin is the cluster peer that produced the response (cluster mode
	// only).
	Origin string `json:"origin,omitempty"`
}

type deviceShare struct {
	Model            string  `json:"model"`
	Units            int     `json:"units"`
	PredictedSeconds float64 `json:"predicted_seconds"`
}

// responseOf builds the answer to res from the solver's own result, as the
// service built it before answers were rendered from cached solutions.
func responseOf(res partition.Result, models []*Model, lay *layoutResponse, seconds float64, cached, coalesced bool, origin string) *partitionResponse {
	out := &partitionResponse{
		Total:        res.Total,
		Devices:      make([]deviceShare, len(res.Assignments)),
		Iterations:   res.Iterations,
		Converged:    res.Converged,
		SolveSeconds: seconds,
		Cached:       cached,
		Coalesced:    coalesced,
		Layout:       lay,
		ModelGens:    make([]uint64, len(models)),
		Origin:       origin,
	}
	for i, m := range models {
		out.ModelGens[i] = m.Gen
	}
	for i, a := range res.Assignments {
		out.Devices[i] = deviceShare{Model: a.Device.Name, Units: a.Units, PredictedSeconds: a.PredictedTime}
	}
	if im := res.Imbalance(); !math.IsNaN(im) && !math.IsInf(im, 0) {
		out.Imbalance = &im
	}
	return out
}

func encodeResponse(pr *partitionResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(pr)
	return buf.Bytes(), err
}

func devicesFor(models []*Model, caps []float64) []partition.Device {
	devices := make([]partition.Device, len(models))
	for i, m := range models {
		devices[i] = partition.Device{Name: m.ID, Model: m.PL}
		if caps != nil {
			devices[i].MaxUnits = caps[i]
		}
	}
	return devices
}

// checkAnswer renders res's solution with appendAnswer and compares it with
// encoding/json's bytes for the answer built from res itself.
func checkAnswer(t *testing.T, res partition.Result, models []*Model, lay *layoutResponse, seconds float64, cached, coalesced bool, origin string) {
	t.Helper()
	want, werr := encodeResponse(responseOf(res, models, lay, seconds, cached, coalesced, origin))
	sol := solution{shares: res.Units(), iterations: res.Iterations, converged: res.Converged, seconds: seconds}
	if lay != nil { // as solve encodes it
		var err error
		if sol.layout, err = json.Marshal(lay); err != nil {
			t.Fatal(err)
		}
	}
	got, gerr := appendAnswer(nil, models, &sol, cached, coalesced, origin)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("appendAnswer error %v, encoding/json error %v", gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("appendAnswer wrote\n%s\nencoding/json wrote\n%s", got, want)
	}
}

func answerModels(peaks ...float64) []*Model {
	models := make([]*Model, len(peaks))
	for i, p := range peaks {
		models[i] = &Model{ID: fmt.Sprintf("dev%d", i), PL: SyntheticModel(16, p), Gen: uint64(7 + 3*i)}
	}
	return models
}

func TestAnswerMatchesEncoder(t *testing.T) {
	fpmSolve := func(t *testing.T, models []*Model, n int, caps []float64) partition.Result {
		t.Helper()
		res, err := partition.FPM(devicesFor(models, caps), n, partition.FPMOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	three := answerModels(200, 650, 900)
	t.Run("plain", func(t *testing.T) {
		checkAnswer(t, fpmSolve(t, three, 4321, nil), three, nil, 1.25e-5, false, false, "")
	})
	t.Run("hit", func(t *testing.T) {
		checkAnswer(t, fpmSolve(t, three, 4321, nil), three, nil, 3e-4, true, false, "")
	})
	t.Run("coalesced from a peer", func(t *testing.T) {
		checkAnswer(t, fpmSolve(t, three, 999, nil), three, nil, 0.5, false, true, "http://10.0.0.3:8080/?a=<b>&c")
	})
	t.Run("caps", func(t *testing.T) {
		checkAnswer(t, fpmSolve(t, three, 3000, []float64{100, 0, 2.5e3}), three, nil, 2e-6, false, false, "")
	})
	t.Run("one device", func(t *testing.T) { // no imbalance to report
		one := answerModels(500)
		checkAnswer(t, fpmSolve(t, one, 77, nil), one, nil, 0, false, false, "")
	})
	t.Run("zero-unit devices", func(t *testing.T) {
		many := answerModels(100, 200, 300, 400, 500)
		res, err := partition.Homogeneous(devicesFor(many, nil), 3)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, res, many, nil, 1, false, false, "")
	})
	t.Run("layout", func(t *testing.T) {
		res := fpmSolve(t, three, 48*48, nil)
		lay, err := buildLayout(res.Units(), 48)
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, res, three, lay, 7.5e-5, true, false, "")
	})
	t.Run("escaped strings", func(t *testing.T) {
		odd := answerModels(300, 300)
		odd[0].ID = "a\"b\\c\n\t\x01<>&\u2028\u2029\u00e9\xff"
		checkAnswer(t, fpmSolve(t, odd, 500, nil), odd, nil, 1, false, false, "\x7f\u00a0\u2029")
	})
	for _, sec := range []float64{1e-7, 9.99e-7, 1e-6, 1e20, 1e21, 123456789.125, 5e-324, math.MaxFloat64, math.Copysign(0, -1)} {
		t.Run(fmt.Sprintf("seconds %g", sec), func(t *testing.T) {
			checkAnswer(t, fpmSolve(t, three, 100, nil), three, nil, sec, false, false, "")
		})
	}
	for _, sec := range []float64{math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprintf("seconds %g", sec), func(t *testing.T) { // both refuse
			checkAnswer(t, fpmSolve(t, three, 100, nil), three, nil, sec, false, false, "")
		})
	}
}

// For the same key, a hit answers the miss's bytes with only "cached"
// flipped: the solve seconds, the derived times and the layout all come
// back as the miss wrote them.
func TestHitAnswerEqualsMiss(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, peak := range []float64{250, 900, 400} {
		if _, err := s.Models.Put(fmt.Sprintf("d-%d.x_%d", i, i), SyntheticModel(16, peak)); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	post := func(body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", body, rec.Code, rec.Body)
		}
		if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
			t.Fatalf("Content-Length %s for a %s-byte body", got, want)
		}
		return rec.Body.Bytes()
	}
	for _, body := range []string{
		`{"models":["d-0.x_0","d-1.x_1","d-2.x_2"],"n":4000}`,
		`{"models":["d-0.x_0","d-1.x_1","d-2.x_2"],"n":4000,"caps":[120.5,0,1e3]}`,
		`{"models":["d-0.x_0","d-1.x_1","d-2.x_2"],"matrix":40,"layout":true}`,
		`{"models":["d-2.x_2","d-2.x_2"],"matrix":9,"caps":[50,50],"layout":true}`,
	} {
		miss := post(body)
		hit := post(body)
		if !bytes.Contains(miss, []byte(`"cached":false`)) {
			t.Fatalf("first answer to %s was not a miss: %s", body, miss)
		}
		if want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1); !bytes.Equal(hit, want) {
			t.Errorf("hit for %s:\n%s\nmiss:\n%s", body, hit, miss)
		}
	}
}

// FuzzPartitionAnswer: for any solution — FPM, with or without caps, or an
// even or CPM split that leaves devices idle — over any model ids, with any
// solve seconds, origin, coalesced flag and layout, appendAnswer writes the
// bytes json.Encoder writes for the answer built from the solver's result.
func FuzzPartitionAnswer(f *testing.F) {
	f.Add(int64(1), uint16(5000), uint8(3), uint8(0), 1e-5, "")
	f.Add(int64(2), uint16(3), uint8(7), uint8(1), 0.25, "http://peer:1")
	f.Add(int64(3), uint16(900), uint8(4), uint8(2|4|16), 3e-7, "<&>")
	f.Add(int64(4), uint16(40), uint8(2), uint8(8|32), 1e22, "\u2028\xff")
	f.Fuzz(func(t *testing.T, seed int64, n uint16, p, mode uint8, seconds float64, origin string) {
		rng := rand.New(rand.NewSource(seed))
		peaks := make([]float64, 1+int(p)%8)
		for i := range peaks {
			peaks[i] = 50 + 950*rng.Float64()
		}
		models := answerModels(peaks...)
		for _, m := range models {
			m.Gen = rng.Uint64()
		}
		if mode&32 != 0 {
			models[0].ID = origin
		}
		units := int(n)
		matrix := 1 + int(n)%64
		if mode&8 != 0 {
			units = matrix * matrix
		}
		var caps []float64
		if mode&4 != 0 {
			caps = make([]float64, len(models))
			for i := range caps {
				if rng.Intn(3) > 0 {
					caps[i] = math.Round(rng.Float64()*float64(units)) / 2
				}
			}
		}
		devices := devicesFor(models, caps)
		var res partition.Result
		var err error
		switch mode % 3 {
		case 0:
			res, err = partition.FPM(devices, units, partition.FPMOptions{})
		case 1:
			res, err = partition.Homogeneous(devices, units)
		default:
			res, err = partition.CPM(devices, units, float64(units)/float64(len(devices)))
		}
		if err != nil {
			t.Skip(err)
		}
		var lay *layoutResponse
		if mode&8 != 0 {
			if lay, err = buildLayout(res.Units(), matrix); err != nil {
				t.Skip(err)
			}
		}
		checkAnswer(t, res, models, lay, seconds, mode&16 != 0, mode&64 != 0, origin)
	})
}
