package mem

import (
	"fmt"

	"smtexplore/internal/isa"
)

// This file exposes the mutable simulation state of the memory system as
// plain exported records so a paused machine can be checkpointed and
// later resumed bit-for-bit. Configuration is deliberately not part of
// the state: a restore target is always built from the same
// HierarchyConfig, and SetState verifies the geometry matches instead of
// trying to reconcile two configs.

// WayState is the serializable image of one cache way.
type WayState struct {
	Tag     uint64 `json:"tag"`
	Valid   bool   `json:"valid,omitempty"`
	Dirty   bool   `json:"dirty,omitempty"`
	LastUse uint64 `json:"last_use,omitempty"`
}

// CacheState is the full mutable state of one cache level: every way
// (including invalid ones, whose LRU stamps still order replacement) and
// the statistics counters.
type CacheState struct {
	Ways       []WayState `json:"ways"`
	Stamp      uint64     `json:"stamp"`
	Accesses   uint64     `json:"accesses"`
	Misses     uint64     `json:"misses"`
	Evictions  uint64     `json:"evictions"`
	DirtyEvict uint64     `json:"dirty_evict"`
}

// State captures the cache's mutable state.
func (c *Cache) State() CacheState {
	s := CacheState{
		Ways:       make([]WayState, len(c.ways)),
		Stamp:      c.stamp,
		Accesses:   c.accesses,
		Misses:     c.misses,
		Evictions:  c.evictions,
		DirtyEvict: c.dirtyEvict,
	}
	for i, w := range c.ways {
		s.Ways[i] = WayState{Tag: w.tag, Valid: w.valid, Dirty: w.dirty, LastUse: w.lastUse}
	}
	return s
}

// SetState overwrites the cache's mutable state with a capture taken
// from an identically configured cache.
func (c *Cache) SetState(s CacheState) error {
	if len(s.Ways) != len(c.ways) {
		return fmt.Errorf("mem: cache state has %d ways, cache has %d", len(s.Ways), len(c.ways))
	}
	for i, w := range s.Ways {
		c.ways[i] = way{tag: w.Tag, valid: w.Valid, dirty: w.Dirty, lastUse: w.LastUse}
	}
	c.stamp = s.Stamp
	c.accesses = s.Accesses
	c.misses = s.Misses
	c.evictions = s.Evictions
	c.dirtyEvict = s.DirtyEvict
	return nil
}

// MSHRState is the serializable image of one miss-status holding
// register.
type MSHRState struct {
	Line  uint64 `json:"line"`
	Ready uint64 `json:"ready"`
	InUse bool   `json:"in_use,omitempty"`
}

// StreamStateSnap is one sequential-stream tracker of the prefetcher.
type StreamStateSnap struct {
	Expect uint64 `json:"expect"`
	Live   bool   `json:"live,omitempty"`
}

// HierarchyState is the full mutable state of the memory system.
type HierarchyState struct {
	L1            CacheState                         `json:"l1"`
	L2            CacheState                         `json:"l2"`
	MSHRs         []MSHRState                        `json:"mshrs"`
	Threads       [2]ThreadStats                     `json:"threads"`
	TagL2Miss     map[isa.Tag]uint64                 `json:"tag_l2_miss,omitempty"`
	PrefIssued    uint64                             `json:"pref_issued"`
	PrefUseful    uint64                             `json:"pref_useful"`
	PrefLate      uint64                             `json:"pref_late"`
	PrefSkipped   uint64                             `json:"pref_skipped"`
	PendingFill   map[uint64]uint64                  `json:"pending_fill,omitempty"`
	Streams       [2][streamTrackers]StreamStateSnap `json:"streams"`
	StreamClock   [2]int                             `json:"stream_clock"`
	L2NextFree    uint64                             `json:"l2_next_free"`
	L2QueueCycles uint64                             `json:"l2_queue_cycles"`
}

// State captures the hierarchy's mutable state.
func (h *Hierarchy) State() HierarchyState {
	s := HierarchyState{
		L1:            h.l1.State(),
		L2:            h.l2.State(),
		MSHRs:         make([]MSHRState, len(h.mshrs)),
		Threads:       h.threads,
		PrefIssued:    h.prefIssued,
		PrefUseful:    h.prefUseful,
		PrefLate:      h.prefLate,
		PrefSkipped:   h.prefSkipped,
		StreamClock:   h.streamClock,
		L2NextFree:    h.l2NextFree,
		L2QueueCycles: h.l2QueueCycles,
	}
	for i, m := range h.mshrs {
		s.MSHRs[i] = MSHRState{Line: m.line, Ready: m.ready, InUse: m.inUse}
	}
	if len(h.tagL2Miss) > 0 {
		s.TagL2Miss = make(map[isa.Tag]uint64, len(h.tagL2Miss))
		for k, v := range h.tagL2Miss {
			s.TagL2Miss[k] = v
		}
	}
	if len(h.pendingFill) > 0 {
		s.PendingFill = make(map[uint64]uint64, len(h.pendingFill))
		for k, v := range h.pendingFill {
			s.PendingFill[k] = v
		}
	}
	for tid := range h.streams {
		for i, st := range h.streams[tid] {
			s.Streams[tid][i] = StreamStateSnap{Expect: st.expect, Live: st.live}
		}
	}
	return s
}

// SetState overwrites the hierarchy's mutable state with a capture taken
// from an identically configured hierarchy.
func (h *Hierarchy) SetState(s HierarchyState) error {
	if len(s.MSHRs) != len(h.mshrs) {
		return fmt.Errorf("mem: hierarchy state has %d MSHRs, hierarchy has %d", len(s.MSHRs), len(h.mshrs))
	}
	if err := h.l1.SetState(s.L1); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := h.l2.SetState(s.L2); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	for i, m := range s.MSHRs {
		h.mshrs[i] = mshr{line: m.Line, ready: m.Ready, inUse: m.InUse}
	}
	h.threads = s.Threads
	h.tagL2Miss = make(map[isa.Tag]uint64, len(s.TagL2Miss))
	for k, v := range s.TagL2Miss {
		h.tagL2Miss[k] = v
	}
	h.prefIssued = s.PrefIssued
	h.prefUseful = s.PrefUseful
	h.prefLate = s.PrefLate
	h.prefSkipped = s.PrefSkipped
	h.pendingFill = make(map[uint64]uint64, max(len(s.PendingFill), pendingFillHint))
	for k, v := range s.PendingFill {
		h.pendingFill[k] = v
	}
	for tid := range h.streams {
		for i, st := range s.Streams[tid] {
			h.streams[tid][i] = streamState{expect: st.Expect, live: st.Live}
		}
	}
	h.streamClock = s.StreamClock
	h.l2NextFree = s.L2NextFree
	h.l2QueueCycles = s.L2QueueCycles
	return nil
}
