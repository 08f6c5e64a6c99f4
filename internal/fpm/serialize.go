package fpm

import (
	"encoding/json"
	"fmt"
)

// modelJSON is the one serialised form of a piecewise-linear model: model
// uploads, model files and replication all carry it.
type modelJSON struct {
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// MarshalJSON encodes the model.
func (m *PiecewiseLinear) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{Kind: "piecewise-linear", Points: m.points})
}

// UnmarshalJSON decodes and validates a model.
func (m *PiecewiseLinear) UnmarshalJSON(data []byte) error {
	var w modelJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Kind != "" && w.Kind != "piecewise-linear" {
		return fmt.Errorf("fpm: unexpected model kind %q", w.Kind)
	}
	built, err := NewPiecewiseLinear(w.Points)
	if err != nil {
		return err
	}
	*m = *built
	return nil
}
