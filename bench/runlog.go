package main

import (
	"bytes"
	"encoding/json"
	"sync"
)

// eventLog is the io.Writer behind an obs.Logger handed to the program. It
// keeps two things from the JSONL run log the program writes: each
// design_point event's wall_ms (the service time of one design point in its
// fan-out replay) and the sum of every http_request event's per-stage
// breakdown.
type eventLog struct {
	mu      sync.Mutex
	pending []byte
	points  []float64
	stages  map[string]float64 // seconds
}

func newEventLog() *eventLog { return &eventLog{stages: map[string]float64{}} }

// Write implements io.Writer. The logger may split one record over several
// writes, so lines are parsed only once complete.
func (l *eventLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pending = append(l.pending, p...)
	for {
		i := bytes.IndexByte(l.pending, '\n')
		if i < 0 {
			break
		}
		l.parse(l.pending[:i])
		l.pending = l.pending[i+1:]
	}
	l.pending = append([]byte(nil), l.pending...)
	return len(p), nil
}

func (l *eventLog) parse(line []byte) {
	var rec struct {
		Event  string             `json:"event"`
		WallMS float64            `json:"wall_ms"`
		Stages map[string]float64 `json:"stages"`
	}
	if json.Unmarshal(line, &rec) != nil {
		return
	}
	switch rec.Event {
	case "design_point":
		l.points = append(l.points, rec.WallMS)
	case "http_request":
		for name, ms := range rec.Stages {
			l.stages[name] += ms / 1000
		}
	}
}

// takePoints returns and clears the design_point service times seen so far.
func (l *eventLog) takePoints() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.points
	l.points = nil
	return p
}

// stageSeconds returns the accumulated seconds of one serving stage.
func (l *eventLog) stageSeconds(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stages[name]
}
