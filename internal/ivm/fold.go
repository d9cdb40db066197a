package ivm

import (
	"sync"

	"dyntables/internal/delta"
	"dyntables/internal/exec"
	"dyntables/internal/plan"
)

// AggState is a dynamic table's per-group state for the foldable
// aggregate nodes of its plan (exec.Foldable): one exec.AggGroup per
// group per node, each node's groups tagged with the version map they
// describe. It lives in memory only; a state miss (no state, or a tag
// that is not the interval start) falls back to the recompute rule,
// which reseeds the state.
//
// Delta only stages updates. The owner installs them once the refresh's
// merge commits (Install) and drops them on any failure (Discard), so
// the installed state always describes the stored contents. Plans are
// re-bound on every refresh, so nodes are identified by their pre-order
// position among the plan's aggregates; a structurally different plan
// forces a full recompute, which must Clear the state.
type AggState struct {
	mu     sync.Mutex
	nodes  map[int]*aggNode
	staged map[int]aggUpdate
}

type aggNode struct {
	tag    VersionMap
	groups map[string]*exec.AggGroup
}

// aggUpdate is one node's staged change. A nil tag drops the node's
// state. Otherwise groups holds the changed groups (nil: emptied), or,
// with replace, every group of the node.
type aggUpdate struct {
	tag     VersionMap
	groups  map[string]*exec.AggGroup
	replace bool
}

// lookup returns the node's installed groups when they describe from,
// else nil. The returned groups must not be modified.
func (s *AggState) lookup(node int, from VersionMap) map[string]*exec.AggGroup {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodes[node]
	if n == nil || !sameVersions(n.tag, from) {
		return nil
	}
	return n.groups
}

func (s *AggState) stage(node int, u aggUpdate) {
	s.mu.Lock()
	if s.staged == nil {
		s.staged = make(map[int]aggUpdate)
	}
	s.staged[node] = u
	s.mu.Unlock()
}

// Install applies the staged updates; call it once the refresh whose
// differentiation staged them has committed.
func (s *AggState) Install() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for node, u := range s.staged {
		n := s.nodes[node]
		switch {
		case u.tag == nil:
			delete(s.nodes, node)
		case u.replace || n == nil:
			if s.nodes == nil {
				s.nodes = make(map[int]*aggNode)
			}
			s.nodes[node] = &aggNode{tag: u.tag.Clone(), groups: u.groups}
		default:
			for key, g := range u.groups {
				if g == nil {
					delete(n.groups, key)
				} else {
					n.groups[key] = g
				}
			}
			n.tag = u.tag.Clone()
		}
	}
	s.staged = nil
}

// Discard drops the staged updates of a refresh that did not commit.
// Delta also discards whatever an earlier, unfinished differentiation
// left staged before staging its own.
func (s *AggState) Discard() {
	s.mu.Lock()
	s.staged = nil
	s.mu.Unlock()
}

// Clear drops all state, installed and staged: the stored contents were
// recomputed, or the plan may have changed.
func (s *AggState) Clear() {
	s.mu.Lock()
	s.nodes, s.staged = nil, nil
	s.mu.Unlock()
}

// Retag moves every node's state tagged from to to, for a refresh that
// advanced the frontier without any source change.
func (s *AggState) Retag(from, to VersionMap) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.nodes {
		if sameVersions(n.tag, from) {
			n.tag = to.Clone()
		}
	}
}

func sameVersions(a, b VersionMap) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// aggregateIDs numbers the plan's aggregate nodes in pre-order.
func aggregateIDs(n plan.Node) map[*plan.Aggregate]int {
	ids := make(map[*plan.Aggregate]int)
	plan.Walk(n, func(node plan.Node) {
		if a, ok := node.(*plan.Aggregate); ok {
			if _, seen := ids[a]; !seen {
				ids[a] = len(ids)
			}
		}
	})
	return ids
}

// foldAggregate folds the signed input delta into the affected groups'
// state, emitting each touched group's old row as a delete and its new
// row as an insert (only the delete when the group empties). ok is false
// when some row or group cannot be folded exactly; nothing is emitted or
// staged then, and the caller recomputes.
func foldAggregate(a *plan.Aggregate, groups map[string]*exec.AggGroup, din []signedRow, env *Env) (out []signedRow, changed map[string]*exec.AggGroup, ok bool) {
	ev := &plan.EvalContext{Now: env.Now}
	changed = make(map[string]*exec.AggGroup)
	var order []string
	for _, sr := range din {
		key, vals, ok := exec.FoldKey(a, sr.Row, ev)
		if !ok {
			return nil, nil, false
		}
		g, seen := changed[key]
		if !seen {
			if old := groups[key]; old != nil {
				g = old.Clone()
			} else {
				g = exec.NewFoldGroup(a, vals)
			}
			changed[key] = g
			order = append(order, key)
		}
		sign := int64(1)
		if sr.Action == delta.Delete {
			sign = -1
		}
		if !g.Fold(sr.Row, sign, ev) {
			return nil, nil, false
		}
	}
	out = make([]signedRow, 0, 2*len(order))
	for _, key := range order {
		id := exec.GroupRowID(key)
		if old := groups[key]; old != nil {
			row, ok := old.Render()
			if !ok {
				return nil, nil, false
			}
			out = append(out, signedRow{ID: id, Row: row, Action: delta.Delete})
		}
		g := changed[key]
		if g.Rows() == 0 {
			changed[key] = nil
			continue
		}
		row, ok := g.Render()
		if !ok {
			return nil, nil, false
		}
		out = append(out, signedRow{ID: id, Row: row, Action: delta.Insert})
	}
	return out, changed, true
}
