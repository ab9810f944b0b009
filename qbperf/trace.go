package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one client
// operation share op; parent is the ID of the span that caused it (0 for
// the operation's root span).
type span struct {
	Tenant string `json:"tenant,omitempty"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps every span in memory until the run ends. One recorder
// serves one tenant stack, which the traced run drives with at most one
// operation in flight: whatever crosses a layer boundary of that stack
// while an operation is open belongs to it. Calls inside one layer can
// still run concurrently (a batch fans out), so the open-span state is
// guarded and kept per level.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID int
	op     int      // current operation (0 = outside any operation)
	open   [3][]int // open spans per level below levelWire, oldest first
}

// Span levels, outermost first. Wire calls are leaves.
const (
	levelOp = iota
	levelOwner
	levelTech
	levelWire
)

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span at level whose parent is the most recently opened
// span still open at level under or, failing that, at the next level
// outward. It returns the function that closes the span. A nil recorder
// records nothing.
func (r *recorder) begin(level, under int, name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Since(r.epoch)
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	if level == levelOp {
		r.op = id
	}
	parent := 0
	for l := under; l >= 0; l-- {
		if n := len(r.open[l]); n > 0 {
			parent = r.open[l][n-1]
			break
		}
	}
	op := r.op
	if level < levelWire {
		r.open[level] = append(r.open[level], id)
	}
	r.mu.Unlock()
	return func() {
		end := time.Since(r.epoch)
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
			Start: int64(start), End: int64(end)})
		if level < levelWire {
			open := r.open[level]
			for i := len(open) - 1; i >= 0; i-- {
				if open[i] == id {
					r.open[level] = append(open[:i], open[i+1:]...)
					break
				}
			}
		}
		if level == levelOp {
			r.op = 0
		}
		r.mu.Unlock()
	}
}

// snapshot returns the spans recorded so far, in completion order.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's duration minus the part of its interval
// covered by the union of its children, keyed by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// writeSpans dumps spans as JSON lines, one per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
