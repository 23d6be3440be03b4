package mem

import (
	"fmt"

	"smtexplore/internal/isa"
)

// HierarchyConfig describes the full data-memory system.
type HierarchyConfig struct {
	L1 CacheConfig
	L2 CacheConfig
	// MemLatency is the DRAM access latency in cycles beyond L2.
	MemLatency int
	// MSHRs bounds the number of outstanding line fills from memory; an
	// access that misses L2 when all MSHRs are busy must be replayed.
	MSHRs int
	// L2Occupancy is the number of cycles the unified L2 port is busy per
	// access (lookup or fill). Both logical processors share it, so
	// L1-thrashing dual-thread workloads queue here — a first-order
	// contention effect of hyper-threading. Zero means unlimited
	// bandwidth.
	L2Occupancy int
	// Prefetch enables the hardware stream prefetcher: sequential line
	// walks detected at the L2 trigger fills of the next PrefetchDepth
	// lines. Prefetch fills compete with demand misses for MSHRs and the
	// L2 port, so two contexts streaming concurrently saturate the
	// memory interface the way they did on the modelled front-side bus.
	Prefetch bool
	// PrefetchDepth is how many lines ahead the streamer runs (default 2
	// when zero).
	PrefetchDepth int
}

// DefaultHierarchy returns the NetBurst-like geometry used throughout the
// reproduction: 8 KB/4-way L1D (lat 2), 512 KB/8-way L2 (lat 18), 250-cycle
// DRAM, 8 MSHRs, hardware prefetch on.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:            CacheConfig{Size: 8 << 10, LineSize: 64, Assoc: 4, Latency: 2},
		L2:            CacheConfig{Size: 512 << 10, LineSize: 64, Assoc: 8, Latency: 18},
		MemLatency:    250,
		MSHRs:         16,
		L2Occupancy:   2,
		Prefetch:      true,
		PrefetchDepth: 8,
	}
}

// Validate reports configuration errors.
func (hc HierarchyConfig) Validate() error {
	if err := hc.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := hc.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if hc.L1.LineSize != hc.L2.LineSize {
		return fmt.Errorf("mem: L1 line %d != L2 line %d (mixed line sizes unsupported)", hc.L1.LineSize, hc.L2.LineSize)
	}
	if hc.MemLatency <= 0 {
		return fmt.Errorf("mem: memory latency %d not positive", hc.MemLatency)
	}
	if hc.MSHRs <= 0 {
		return fmt.Errorf("mem: MSHR count %d not positive", hc.MSHRs)
	}
	return nil
}

// AccessResult reports the outcome of one demand access.
type AccessResult struct {
	// Latency is the total access latency in cycles (hit pipeline plus
	// any miss handling). Zero when Retry is set.
	Latency int
	// L1Miss and L2Miss flag the miss events raised.
	L1Miss bool
	L2Miss bool
	// Retry means no MSHR was available for a memory fill; the access
	// did not happen and must be replayed by the scheduler.
	Retry bool
}

// mshr tracks an in-flight line fill from memory.
type mshr struct {
	line  uint64
	ready uint64 // cycle at which the fill completes
	inUse bool
}

// ThreadStats aggregates per-hardware-context memory events.
type ThreadStats struct {
	Accesses     uint64
	L1Misses     uint64
	L2Misses     uint64 // demand read+write L2 misses, as seen by the bus unit
	L2ReadMisses uint64
	MSHRRetries  uint64
}

// Hierarchy is the shared L1D+L2+DRAM system. Both hardware contexts of
// the SMT core access the same instance, so they cooperate and conflict in
// cache exactly as the paper's threads do.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  *Cache
	l2  *Cache

	mshrs []mshr

	threads [2]ThreadStats
	// tagL2Miss attributes demand L2 misses to static instruction sites
	// (the Valgrind-analogue used to find delinquent loads).
	tagL2Miss map[isa.Tag]uint64

	prefIssued  uint64
	prefUseful  uint64
	prefLate    uint64 // demanded before the fill arrived
	prefSkipped uint64 // stream fills dropped because no MSHR was free
	// pendingFill records prefetched lines whose fill is still in flight:
	// a demand access arriving early pays the remaining latency and is
	// counted as an exposed (demand) miss, like a squashed/merged bus
	// request on the real machine.
	pendingFill map[uint64]uint64
	// streams holds each context's active sequential-stream trackers
	// (the modelled front-side-bus prefetcher follows several independent
	// streams per logical processor, as scientific kernels interleave
	// multiple array walks).
	streams [2][streamTrackers]streamState
	// streamClock drives round-robin replacement of stream trackers.
	streamClock [2]int
	// l2NextFree is the cycle at which the shared L2 port frees up.
	l2NextFree uint64
	// l2QueueCycles accumulates the queuing delay demand accesses paid
	// for the L2 port.
	l2QueueCycles uint64
}

// streamTrackers is the number of concurrent streams followed per context.
const streamTrackers = 8

// streamState is one sequential-stream tracker: the line expected next.
type streamState struct {
	expect uint64
	live   bool
}

// pendingFillHint sizes pendingFill above the most fills in flight that
// the kernel cells keep (85, bt-3-tlp-coarse). A Go map that fills up
// under deletes grows at a point that depends on its random hash seed,
// so a smaller map made a cell's allocation count vary from run to run.
const pendingFillHint = 128

// NewHierarchy builds the memory system; it panics on invalid
// configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{
		cfg:         cfg,
		l1:          NewCache(cfg.L1),
		l2:          NewCache(cfg.L2),
		mshrs:       make([]mshr, cfg.MSHRs),
		tagL2Miss:   make(map[isa.Tag]uint64),
		pendingFill: make(map[uint64]uint64, pendingFillHint),
	}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// L1 and L2 expose the cache levels (read-only use intended).
func (h *Hierarchy) L1() *Cache { return h.l1 }
func (h *Hierarchy) L2() *Cache { return h.l2 }

// Access performs a demand access by hardware context tid at cycle now.
// write selects store semantics (write-allocate, mark dirty). tag
// attributes any L2 miss to a static instruction site.
func (h *Hierarchy) Access(now uint64, tid int, addr uint64, write bool, tag isa.Tag) AccessResult {
	if tid < 0 || tid > 1 {
		panic(fmt.Sprintf("mem: invalid hardware context %d", tid))
	}
	ts := &h.threads[tid]
	ts.Accesses++

	line := h.l1.LineAddr(addr)

	if h.l1.Lookup(addr, write) {
		return AccessResult{Latency: h.cfg.L1.Latency}
	}
	ts.L1Misses++

	// The unified L2 port is shared by both logical processors (and the
	// stream prefetcher): queue for it.
	l2Wait := h.claimL2Port(now)
	h.l2QueueCycles += uint64(l2Wait)

	if h.l2.Lookup(addr, write) {
		extra := 0
		if ready, pending := h.pendingFill[line]; pending {
			delete(h.pendingFill, line)
			if ready > now {
				// The stream fill is still on the bus: the demand merges
				// with it, pays the remaining latency, and shows up as a
				// demand miss on the monitoring counters.
				extra = int(ready - now)
				h.prefLate++
				ts.L2Misses++
				if !write {
					ts.L2ReadMisses++
				}
				if tag != isa.NoTag {
					h.tagL2Miss[tag]++
				}
			} else {
				h.prefUseful++
			}
		}
		h.l1.Insert(addr, write)
		h.streamCheck(now, tid, line)
		return AccessResult{
			Latency: h.cfg.L1.Latency + l2Wait + h.cfg.L2.Latency + extra,
			L1Miss:  true,
			L2Miss:  extra > 0,
		}
	}

	// L2 miss: a memory fill is required. Merge with an in-flight fill
	// of the same line if one exists; otherwise claim a free MSHR.
	remaining, merged := h.mergeInflight(now, line)
	if !merged {
		m := h.freeMSHR(now)
		if m == nil {
			ts.MSHRRetries++
			return AccessResult{Retry: true}
		}
		remaining = h.cfg.MemLatency
		*m = mshr{line: line, ready: now + uint64(remaining), inUse: true}
	}

	ts.L2Misses++
	if !write {
		ts.L2ReadMisses++
	}
	if tag != isa.NoTag {
		h.tagL2Miss[tag]++
	}

	// Immediate-fill model: the line is installed now and the requester
	// charged the full latency. Subsequent accesses therefore hit, which
	// is why merge bookkeeping above is what enforces MSHR pressure.
	h.l2.Insert(addr, write)
	h.l1.Insert(addr, write)
	delete(h.pendingFill, line)
	h.streamCheck(now, tid, line)

	return AccessResult{
		Latency: h.cfg.L1.Latency + l2Wait + h.cfg.L2.Latency + remaining,
		L1Miss:  true,
		L2Miss:  true,
	}
}

// claimL2Port reserves the shared L2 port and returns the queuing delay.
func (h *Hierarchy) claimL2Port(now uint64) int {
	if h.cfg.L2Occupancy <= 0 {
		return 0
	}
	start := now
	if h.l2NextFree > start {
		start = h.l2NextFree
	}
	h.l2NextFree = start + uint64(h.cfg.L2Occupancy)
	return int(start - now)
}

// L2QueueCycles reports the accumulated L2-port queuing delay.
func (h *Hierarchy) L2QueueCycles() uint64 { return h.l2QueueCycles }

// mergeInflight finds an in-flight fill of line and returns its remaining
// latency.
func (h *Hierarchy) mergeInflight(now uint64, line uint64) (remaining int, ok bool) {
	for i := range h.mshrs {
		m := &h.mshrs[i]
		if m.inUse && m.ready > now && m.line == line {
			return int(m.ready - now), true
		}
	}
	return 0, false
}

// busyMSHRs counts fills still in flight at now.
func (h *Hierarchy) busyMSHRs(now uint64) int {
	n := 0
	for i := range h.mshrs {
		if h.mshrs[i].inUse && h.mshrs[i].ready > now {
			n++
		}
	}
	return n
}

func (h *Hierarchy) freeMSHR(now uint64) *mshr {
	for i := range h.mshrs {
		m := &h.mshrs[i]
		if !m.inUse || m.ready <= now {
			return m
		}
	}
	return nil
}

// InflightFills reports the number of busy MSHRs at cycle now (tests and
// debugging).
func (h *Hierarchy) InflightFills(now uint64) int {
	n := 0
	for i := range h.mshrs {
		if h.mshrs[i].inUse && h.mshrs[i].ready > now {
			n++
		}
	}
	return n
}

// streamCheck advances the per-context sequential-stream detectors and
// issues stream prefetches when the context continues one of its tracked
// line walks. A non-matching access trains a fresh tracker (round-robin
// replacement), so up to streamTrackers interleaved array walks are
// followed concurrently per logical processor.
func (h *Hierarchy) streamCheck(now uint64, tid int, line uint64) {
	if !h.cfg.Prefetch {
		return
	}
	ls := uint64(h.cfg.L1.LineSize)
	trackers := &h.streams[tid]
	for i := range trackers {
		st := &trackers[i]
		if !st.live || st.expect != line {
			continue
		}
		// Stream continues: prefetch ahead and advance.
		depth := h.cfg.PrefetchDepth
		if depth <= 0 {
			depth = 2
		}
		for k := 1; k <= depth; k++ {
			h.prefetchLine(now, line+uint64(k)*ls)
		}
		st.expect = line + ls
		return
	}
	// No tracker matched: train a new stream on this line.
	slot := h.streamClock[tid] % streamTrackers
	h.streamClock[tid]++
	trackers[slot] = streamState{expect: line + ls, live: true}
}

// prefetchLine installs line into L2 only (hardware prefetchers on the
// modelled core do not pollute L1). A prefetch consumes an MSHR for the
// full memory latency — stream fills and demand misses share the memory
// interface — but the line is optimistically available immediately; when
// no MSHR is free the fill is dropped.
func (h *Hierarchy) prefetchLine(now uint64, line uint64) {
	if h.l2.Contains(line) {
		return
	}
	// Stream fills are low priority: they throttle when the MSHR file is
	// half full, leaving headroom for demand misses (real prefetchers
	// yield to demand traffic rather than starve it).
	if h.busyMSHRs(now) >= len(h.mshrs)*3/4 {
		h.prefSkipped++
		return
	}
	m := h.freeMSHR(now)
	if m == nil {
		h.prefSkipped++
		return
	}
	*m = mshr{line: line, ready: now + uint64(h.cfg.MemLatency), inUse: true}
	h.claimL2Port(now) // the fill occupies the shared L2 port too
	h.prefIssued++
	h.l2.Insert(line, false)
	h.pendingFill[line] = now + uint64(h.cfg.MemLatency)
}

// SoftwarePrefetch models a prefetch performed by a helper thread's load:
// it behaves as a demand read access for timing and occupancy but is
// attributed to the prefetching context.
func (h *Hierarchy) SoftwarePrefetch(now uint64, tid int, addr uint64, tag isa.Tag) AccessResult {
	return h.Access(now, tid, addr, false, tag)
}

// Thread returns the per-context statistics.
func (h *Hierarchy) Thread(tid int) ThreadStats { return h.threads[tid] }

// TagMisses returns the demand L2 misses attributed to each static site,
// the input to delinquent-load selection.
func (h *Hierarchy) TagMisses() map[isa.Tag]uint64 {
	out := make(map[isa.Tag]uint64, len(h.tagL2Miss))
	for k, v := range h.tagL2Miss {
		out[k] = v
	}
	return out
}

// PrefetchStats reports hardware-prefetch activity: fills issued, fills
// that fully hid the miss, and fills demanded before they arrived.
func (h *Hierarchy) PrefetchStats() (issued, useful uint64) {
	return h.prefIssued, h.prefUseful
}

// PrefetchLate reports demand accesses that merged with an in-flight
// stream fill (partial hiding only).
func (h *Hierarchy) PrefetchLate() uint64 { return h.prefLate }

// PrefetchSkipped reports stream fills dropped for lack of MSHRs — the
// signature of a saturated memory interface.
func (h *Hierarchy) PrefetchSkipped() uint64 { return h.prefSkipped }
