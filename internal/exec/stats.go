package exec

import (
	"sync"
	"time"

	"dyntables/internal/plan"
)

// NodeStat is the accumulated execution statistics of one plan node:
// rows produced, how many times the node was (re)executed, and its
// cumulative wall time including children (Postgres-style inclusive
// actual time).
type NodeStat struct {
	Rows  int64
	Loops int64
	Time  time.Duration
}

// NodeStats collects per-plan-node statistics for EXPLAIN ANALYZE.
// Attach one to Context.Stats to enable collection; a nil collector
// costs nothing. Safe for concurrent use (parallel differentiation
// branches share one plan).
type NodeStats struct {
	mu sync.Mutex
	m  map[plan.Node]*NodeStat
}

// NewNodeStats builds an empty collector.
func NewNodeStats() *NodeStats {
	return &NodeStats{m: make(map[plan.Node]*NodeStat)}
}

// Lookup returns a copy of the node's accumulated stats; ok is false
// when the node never executed.
func (s *NodeStats) Lookup(n plan.Node) (NodeStat, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.m[n]
	if !ok {
		return NodeStat{}, false
	}
	return *st, true
}

// add accumulates a node's progress: rows produced, wall time, and one
// loop when loop is set (a cursor's first Next, or a columnar node run).
func (s *NodeStats) add(n plan.Node, rows int64, d time.Duration, loop bool) {
	s.mu.Lock()
	st := s.m[n]
	if st == nil {
		st = &NodeStat{}
		s.m[n] = st
	}
	st.Rows += rows
	st.Time += d
	if loop {
		st.Loops++
	}
	s.mu.Unlock()
}

// statIter wraps a streamed node's iterator, attributing rows out, one
// loop and cumulative wall time (inclusive of children) to its plan node.
type statIter struct {
	in     RowIter
	stats  *NodeStats
	n      plan.Node
	opened bool
}

func (it *statIter) Next() (TRow, bool, error) {
	loop := !it.opened
	it.opened = true
	start := time.Now()
	tr, ok, err := it.in.Next()
	rows := int64(0)
	if ok {
		rows = 1
	}
	it.stats.add(it.n, rows, time.Since(start), loop)
	return tr, ok, err
}

func (it *statIter) Close() { it.in.Close() }
