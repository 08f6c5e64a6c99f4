package telemetry

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// Metric hygiene: every instrument this repo registers must follow the
// Prometheus naming conventions, and one metric name must mean one thing —
// one kind, one label-key schema. The hygiene test walks the default
// registry after importing every instrumented package and fails CI on a
// violation, so a typo'd or unit-less metric never ships.

// MetricInfo describes one registered instrument.
type MetricInfo struct {
	// Name is the metric name (without labels).
	Name string
	// Labels are the ordered key/value pairs of this series.
	Labels []string
	// Kind is the Prometheus type: "counter", "gauge" or "histogram".
	Kind string
}

// MetricInfos returns every registered instrument, sorted by series
// identity.
func (r *Registry) MetricInfos() []MetricInfo {
	ms := r.sortedMetrics()
	out := make([]MetricInfo, len(ms))
	for i, m := range ms {
		mm := m.meta()
		out[i] = MetricInfo{
			Name:   mm.name,
			Labels: append([]string(nil), mm.labels...),
			Kind:   m.promKind(),
		}
	}
	return out
}

// metricNameRE is snake_case: lowercase segments separated by single
// underscores, starting with a letter.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

var labelKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// histogramUnitSuffixes is the unit vocabulary histogram names must end
// with. Time is _seconds, memory is _bytes; the rest are the solver's
// dimensionless units (solver evaluations, problem units).
var histogramUnitSuffixes = []string{"_seconds", "_bytes", "_iterations", "_units"}

// Hygiene checks every metric registered in r against the naming
// conventions and returns a description of each violation (empty = clean):
//
//   - names must be snake_case ([a-z0-9_], starting with a letter)
//   - counters must end in _total
//   - gauges must not end in _total
//   - histograms must end in a known unit suffix (_seconds, _bytes, ...)
//   - label keys must be snake_case
//   - a metric name must map to exactly one kind and one label-key set
func Hygiene(r *Registry) []string {
	var violations []string
	kindByName := map[string]string{}
	keysByName := map[string]string{}
	for _, mi := range r.MetricInfos() {
		if !metricNameRE.MatchString(mi.Name) {
			violations = append(violations, fmt.Sprintf("%s: name is not snake_case", mi.Name))
		}
		switch mi.Kind {
		case "counter":
			if !strings.HasSuffix(mi.Name, "_total") {
				violations = append(violations, fmt.Sprintf("%s: counter missing _total suffix", mi.Name))
			}
		case "gauge":
			if strings.HasSuffix(mi.Name, "_total") {
				violations = append(violations, fmt.Sprintf("%s: gauge must not end in _total", mi.Name))
			}
		case "histogram":
			ok := false
			for _, suf := range histogramUnitSuffixes {
				if strings.HasSuffix(mi.Name, suf) {
					ok = true
					break
				}
			}
			if !ok {
				violations = append(violations, fmt.Sprintf(
					"%s: histogram missing unit suffix (one of %s)",
					mi.Name, strings.Join(histogramUnitSuffixes, " ")))
			}
		}

		keys := make([]string, 0, len(mi.Labels)/2)
		for i := 0; i+1 < len(mi.Labels); i += 2 {
			k := mi.Labels[i]
			if !labelKeyRE.MatchString(k) {
				violations = append(violations, fmt.Sprintf("%s: label key %q is not snake_case", mi.Name, k))
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		keySet := strings.Join(keys, ",")
		if prev, ok := kindByName[mi.Name]; ok && prev != mi.Kind {
			violations = append(violations, fmt.Sprintf(
				"%s: registered as both %s and %s", mi.Name, prev, mi.Kind))
		} else {
			kindByName[mi.Name] = mi.Kind
		}
		if prev, ok := keysByName[mi.Name]; ok && prev != keySet {
			violations = append(violations, fmt.Sprintf(
				"%s: inconsistent label keys: {%s} vs {%s}", mi.Name, prev, keySet))
		} else {
			keysByName[mi.Name] = keySet
		}
	}
	return violations
}
