package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number. Percentile is 0 for a count, a ratio of
// counts or a difference of medians.
type metric struct {
	Name       string  `json:"name"`
	Unit       string  `json:"unit"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Percentile float64 `json:"percentile"`
}

// metrics collects a run's numbers by name. Units are not given where a
// number is measured: BENCHMARK.json declares them, once.
type metrics []metric

func (ms *metrics) add(name string, value float64, samples int, pct float64) {
	*ms = append(*ms, metric{Name: name, Value: value, Samples: samples, Percentile: pct})
}

// declaredAs returns the metrics in the order and with the units of
// declared. A declared metric the run did not measure reads 0 — a layer the
// workload does not exercise; a measured one that is not declared is a bug.
func (ms metrics) declaredAs(declared []specMetric) ([]metric, error) {
	out := make([]metric, 0, len(declared))
	names := map[string]bool{}
	for _, d := range declared {
		names[d.Name] = true
		m, _ := ms.get(d.Name)
		m.Name, m.Unit = d.Name, d.Unit
		out = append(out, m)
	}
	for _, m := range ms {
		if !names[m.Name] {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", m.Name)
		}
	}
	return out, nil
}

func (ms metrics) get(name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (ms metrics) print() {
	sorted := append(metrics(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		pct := ""
		if m.Percentile > 0 {
			pct = fmt.Sprintf(" p%g", m.Percentile*100)
		}
		fmt.Printf("  %-32s %14.6g %-8s n=%d%s\n", m.Name, m.Value, m.Unit, m.Samples, pct)
	}
}

// rssSampler reads the process's resident set every rssEvery while a window
// runs. The median of the readings is steadier than the peak, which depends
// on where in a garbage-collection cycle the largest allocation fell.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
	err     error
}

const rssEvery = 20 * time.Millisecond

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				mb, err := residentMB()
				if err != nil {
					r.err = err
					return
				}
				r.samples = append(r.samples, mb)
			}
		}
	}()
	return r
}

// median stops the sampler and returns the median reading.
func (r *rssSampler) median() (float64, int, error) {
	close(r.stop)
	<-r.done
	if r.err == nil && len(r.samples) == 0 {
		r.err = fmt.Errorf("no resident-set reading in the window")
	}
	return median(r.samples), len(r.samples), r.err
}

// residentMB reads the resident set from /proc/self/statm: its second field,
// in pages.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}
