package hw

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON (de)serialisation of platform descriptions, so custom nodes can be
// supplied to the tools as config files instead of code. The wire format is
// the JSON of Node, Socket and GPU under their field tags; ReadConfig
// validates the result before returning it.

// WriteConfig serialises the node as indented JSON.
func WriteConfig(w io.Writer, n *Node) error {
	if err := n.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(n)
}

// ReadConfig parses and validates a node description.
func ReadConfig(r io.Reader) (*Node, error) {
	n := &Node{}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(n); err != nil {
		return nil, fmt.Errorf("hw: parsing platform config: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("hw: invalid platform config: %w", err)
	}
	return n, nil
}
