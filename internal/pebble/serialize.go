package pebble

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// jsonMove is the wire form of a Move: a one-letter kind plus [proc,node]
// action pairs (proc −1 encodes a blue deletion).
type jsonMove struct {
	K string     `json:"k"`
	A [][2]int32 `json:"a"`
}

var kindLetter = map[OpKind]string{
	OpWrite:   "w",
	OpRead:    "r",
	OpCompute: "c",
	OpDelete:  "d",
}

var letterKind = map[string]OpKind{
	"w": OpWrite,
	"r": OpRead,
	"c": OpCompute,
	"d": OpDelete,
}

// WriteJSON streams the strategy as one JSON array of moves.
func (s *Strategy) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	pairs := make([][2]int32, len(s.acts))
	for i, a := range s.acts {
		pairs[i] = [2]int32{a.Proc, a.Node}
	}
	moves := make([]jsonMove, s.Len())
	var start int32
	for i, kind := range s.kinds {
		moves[i] = jsonMove{K: kindLetter[kind], A: pairs[start:s.ends[i]]}
		start = s.ends[i]
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(moves); err != nil {
		return fmt.Errorf("pebble: encoding strategy: %w", err)
	}
	return bw.Flush()
}

// ReadJSON parses a strategy written by WriteJSON. The result is not
// validated against any instance; run Replay to check it.
func ReadJSON(r io.Reader) (*Strategy, error) {
	var moves []jsonMove
	dec := json.NewDecoder(r)
	if err := dec.Decode(&moves); err != nil {
		return nil, fmt.Errorf("pebble: decoding strategy: %w", err)
	}
	s := &Strategy{}
	var m Move
	for i, jm := range moves {
		kind, ok := letterKind[jm.K]
		if !ok {
			return nil, fmt.Errorf("pebble: move %d has unknown kind %q", i, jm.K)
		}
		m.Kind, m.Actions = kind, m.Actions[:0]
		for _, a := range jm.A {
			m.Actions = append(m.Actions, Action{Proc: a[0], Node: a[1]})
		}
		s.Append(m)
	}
	return s, nil
}

// GobEncode encodes the strategy in its WriteJSON wire form, so a gob
// stream (the solve cache's file store) holds the one strategy format
// the repository has.
func (s *Strategy) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode decodes a strategy written by GobEncode.
func (s *Strategy) GobDecode(data []byte) error {
	t, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		return err
	}
	*s = *t
	return nil
}
