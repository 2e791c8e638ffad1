package server

import (
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/trace"
)

// cacheKey content-addresses one functional-equivalence class: the SHA-256
// of every stream-changing job dimension (see compiledJob.cacheKey).
type cacheKey [32]byte

// traceCache stores captured dynamic-instruction traces (plus the engine
// counters of the capture run) under their content address, so repeat
// submissions of the same stream — including ones that change only timing
// knobs — skip the functional emulation entirely and are served by the
// allocation-free replayer.
//
// The cache is two-tiered. The memory tier holds the hot set under its own
// byte budget; an optional disk tier (internal/store) holds the full set, so
// restarts are warm and memory evictions are not capture losses. A memory
// miss consults the disk before capturing; a completed capture is written
// through. Disk IO errors never fail a job: the cache degrades to
// memory-only serving (degraded=true in stats, /healthz) until a background
// probe sees the disk healthy again.
//
// Concurrent submissions of one key are single-flighted on the entry lock:
// the first holds ent.mu across its capture (and its disk lookup/write),
// later ones block and then hit. Completed entries are LRU-evicted from
// memory once their record bytes exceed the budget; in-flight entries are
// never evicted (they are not accounted until complete).
type traceCache struct {
	mu     sync.Mutex
	m      map[cacheKey]*cacheEnt
	bytes  int64
	budget int64
	gen    uint64

	// disk is the persistent tier; nil when the server runs memory-only.
	// diskOK is true while the tier is serving; a disk IO error flips it
	// false (degraded) and the probe loop flips it back.
	disk   *store.Store
	diskOK atomic.Bool
	log    *slog.Logger

	// peer, when non-nil, is the fleet's cross-node fetch hook, consulted
	// after the disk tier and before capturing: a non-owner that misses asks
	// the class's owner for its already-captured entry.
	peer peerFetcher

	hits, misses, evictions atomic.Int64

	// Disk-tier outcomes. Every cacheable job is exactly one of hits,
	// diskHits, peerHits, or misses; diskMisses counts the captures that
	// consulted a healthy disk first, and diskBad the entries the store
	// verified but this layer could not decode (version skew — served as a
	// miss). peerFetches counts peer consultations, peerHits the ones a
	// peer answered.
	diskHits, diskMisses, diskBad atomic.Int64
	peerFetches, peerHits         atomic.Int64
	degradedEvents                atomic.Int64
}

// peerFetcher is the fleet layer's hook into the cache miss path.
// consulted reports whether any peer was actually asked (false when this
// node owns the class or no fleet is configured), so peerFetches counts
// real cross-node lookups only.
type peerFetcher interface {
	peerFetch(key cacheKey) (tr *trace.Trace, es core.EngineStats, ok, consulted bool)
}

type cacheEnt struct {
	// mu single-flights the capture; ready/tr/engine are written once under
	// it and only read by holders of it.
	mu     sync.Mutex
	ready  bool
	tr     *trace.Trace
	engine core.EngineStats

	// stored/size/gen are the LRU bookkeeping, guarded by traceCache.mu.
	stored bool
	size   int64
	gen    uint64
}

func newTraceCache(budget int64, disk *store.Store, log *slog.Logger) *traceCache {
	c := &traceCache{m: make(map[cacheKey]*cacheEnt), budget: budget, disk: disk, log: log}
	c.diskOK.Store(disk != nil)
	return c
}

// cacheProv records which tier served a trace: the memory hot set, the
// persistent disk tier, or a fresh capture (a miss of both). The batch
// summary reports it verbatim as cache-hit provenance; the single-job path
// only distinguishes hit (memory or disk) from capture.
type cacheProv uint8

const (
	provCapture cacheProv = iota // captured now: a miss of every tier
	provMemory                   // served from the memory hot set
	provDisk                     // served from the persistent disk tier
	provPeer                     // fetched from the owning peer's cache
)

func (p cacheProv) String() string {
	switch p {
	case provMemory:
		return "memory"
	case provDisk:
		return "disk"
	case provPeer:
		return "peer"
	default:
		return "capture"
	}
}

// hit reports whether the trace came from either cache tier.
func (p cacheProv) hit() bool { return p != provCapture }

// do returns the trace for key, capturing it via capture on first use. prov
// reports which tier served it. A capture error (cancellation, timeout) is
// returned without populating the entry, so the next submission of the
// class retries: a truncated stream reflects a wall-clock accident, never
// program content.
func (c *traceCache) do(key cacheKey, capture func() (*trace.Trace, core.EngineStats, error)) (tr *trace.Trace, es core.EngineStats, prov cacheProv, err error) {
	c.mu.Lock()
	ent := c.m[key]
	if ent == nil {
		ent = &cacheEnt{}
		c.m[key] = ent
	}
	c.gen++
	ent.gen = c.gen
	c.mu.Unlock()

	ent.mu.Lock()
	defer ent.mu.Unlock()
	if ent.ready {
		c.hits.Add(1)
		return ent.tr, ent.engine, provMemory, nil
	}

	if tr, es, ok := c.diskGet(key); ok {
		ent.tr, ent.engine, ent.ready = tr, es, true
		c.diskHits.Add(1)
		c.account(key, ent)
		return tr, es, provDisk, nil
	}

	if c.peer != nil {
		tr, es, ok, consulted := c.peer.peerFetch(key)
		if consulted {
			c.peerFetches.Add(1)
		}
		if ok {
			ent.tr, ent.engine, ent.ready = tr, es, true
			c.peerHits.Add(1)
			c.diskPut(key, tr, es)
			c.account(key, ent)
			return tr, es, provPeer, nil
		}
	}

	tr, es, err = capture()
	if err != nil {
		c.mu.Lock()
		if c.m[key] == ent {
			delete(c.m, key)
		}
		c.mu.Unlock()
		return nil, core.EngineStats{}, provCapture, err
	}
	ent.tr, ent.engine, ent.ready = tr, es, true
	c.misses.Add(1)
	c.diskPut(key, tr, es)
	c.account(key, ent)
	return tr, es, provCapture, nil
}

// diskGet consults the persistent tier for key. ok=false covers every
// non-hit: no tier, degraded, absent, quarantined-corrupt, or undecodable —
// the caller captures. A disk IO error additionally degrades the cache.
func (c *traceCache) diskGet(key cacheKey) (*trace.Trace, core.EngineStats, bool) {
	if c.disk == nil || !c.diskOK.Load() {
		return nil, core.EngineStats{}, false
	}
	payload, ok, err := c.disk.Get(store.Key(key))
	if err != nil {
		c.degrade("get", err)
		return nil, core.EngineStats{}, false
	}
	if !ok {
		c.diskMisses.Add(1)
		return nil, core.EngineStats{}, false
	}
	tr, es, err := decodePersist(payload)
	if err != nil {
		// The store verified the bytes, so this is a codec mismatch (old
		// version), not corruption: recapture and overwrite.
		c.diskBad.Add(1)
		c.diskMisses.Add(1)
		c.log.Warn("store entry undecodable, recapturing", "err", err)
		return nil, core.EngineStats{}, false
	}
	return tr, es, true
}

// diskPut writes a completed capture through to the persistent tier. Errors
// degrade the cache; the job itself is already served from memory.
func (c *traceCache) diskPut(key cacheKey, tr *trace.Trace, es core.EngineStats) {
	if c.disk == nil || !c.diskOK.Load() {
		return
	}
	payload, err := encodePersist(tr, es)
	if err != nil {
		// Not a disk fault (e.g. a pathological output string); log and
		// serve this class from memory only.
		c.diskBad.Add(1)
		c.log.Warn("capture not persistable", "err", err)
		return
	}
	if err := c.disk.Put(store.Key(key), payload); err != nil {
		c.degrade("put", err)
	}
}

// peek returns a completed memory-tier entry without waiting on in-flight
// work: a capture mid-flight holds ent.mu, and the trace-serving endpoint
// must not park an HTTP handler behind a simulation — the peer falls back
// to the disk tier or its own capture instead.
func (c *traceCache) peek(key cacheKey) (*trace.Trace, core.EngineStats, bool) {
	c.mu.Lock()
	ent := c.m[key]
	c.mu.Unlock()
	if ent == nil {
		return nil, core.EngineStats{}, false
	}
	if !ent.mu.TryLock() {
		return nil, core.EngineStats{}, false
	}
	defer ent.mu.Unlock()
	if !ent.ready {
		return nil, core.EngineStats{}, false
	}
	return ent.tr, ent.engine, true
}

// diskRaw returns the verified store payload for key without decoding it,
// for serving to a peer verbatim. err is non-nil only for a disk IO fault
// (which also degrades the tier) or an already-degraded tier — the caller
// answers 503, distinguishing "cannot know" from a clean miss.
func (c *traceCache) diskRaw(key cacheKey) ([]byte, bool, error) {
	if c.disk == nil {
		return nil, false, nil
	}
	if !c.diskOK.Load() {
		return nil, false, errDiskDegraded
	}
	payload, ok, err := c.disk.Get(store.Key(key))
	if err != nil {
		c.degrade("get", err)
		return nil, false, err
	}
	return payload, ok, nil
}

// errDiskDegraded marks a disk tier that is configured but detached.
var errDiskDegraded = errors.New("disk tier degraded")

// install adopts an already-verified entry pushed by a replicating peer:
// memory tier plus write-through to disk, exactly like a local capture. An
// entry whose class is mid-capture locally is dropped — the local flight
// will produce the identical bytes anyway, and blocking a peer's HTTP
// handler behind a simulation helps no one.
func (c *traceCache) install(key cacheKey, tr *trace.Trace, es core.EngineStats) {
	c.mu.Lock()
	ent := c.m[key]
	if ent == nil {
		ent = &cacheEnt{}
		c.m[key] = ent
		c.gen++
		ent.gen = c.gen
	}
	c.mu.Unlock()
	if !ent.mu.TryLock() {
		return
	}
	defer ent.mu.Unlock()
	if ent.ready {
		return
	}
	ent.tr, ent.engine, ent.ready = tr, es, true
	c.diskPut(key, tr, es)
	c.account(key, ent)
}

// degrade flips the cache to memory-only serving, once per outage.
func (c *traceCache) degrade(op string, err error) {
	if c.diskOK.CompareAndSwap(true, false) {
		c.degradedEvents.Add(1)
		c.log.Warn("disk tier degraded, serving memory-only", "op", op, "err", err)
	}
}

// probeDisk checks a degraded disk tier end to end and re-attaches it when
// healthy. Called from the server's recovery loop.
func (c *traceCache) probeDisk() {
	if c.disk == nil || c.diskOK.Load() {
		return
	}
	if err := c.disk.Probe(); err != nil {
		return
	}
	if c.diskOK.CompareAndSwap(false, true) {
		c.log.Info("disk tier healthy again, re-attached")
	}
}

// degraded reports whether a configured disk tier is currently detached.
func (c *traceCache) degraded() bool {
	return c.disk != nil && !c.diskOK.Load()
}

// account indexes a completed entry in the memory tier and LRU-evicts other
// completed entries until the byte budget holds. Callers hold ent.mu.
func (c *traceCache) account(key cacheKey, ent *cacheEnt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A concurrent failed capture may have deleted the key while this entry's
	// waiter was still queued on it, and another entry may have been captured
	// and accounted under the key since. Re-insert so the completed entry is
	// reachable, and release the displaced entry's bytes: once unmapped it can
	// never be evicted, so its size would stay in the ledger for good.
	if old := c.m[key]; old != ent {
		if old != nil && old.stored {
			c.bytes -= old.size
			old.stored = false
		}
		c.m[key] = ent
	}
	ent.stored = true
	ent.size = int64(ent.tr.Len()) * 32 // cpu.Rec footprint, as in the experiment store
	c.bytes += ent.size
	for c.bytes > c.budget {
		var victim cacheKey
		var ve *cacheEnt
		vg := ^uint64(0)
		for k, e := range c.m {
			if e.stored && e != ent && e.gen < vg {
				vg, victim, ve = e.gen, k, e
			}
		}
		if ve == nil {
			break
		}
		c.bytes -= ve.size
		delete(c.m, victim)
		c.evictions.Add(1)
	}
}

// CacheStats is the /stats view of the trace cache. The memory-tier fields
// keep their one-tier meanings (hits = memory hits, misses = captures);
// every cacheable job is exactly one of hits, disk_hits, peer_hits, or
// misses. The disk_* fields are zero and degraded false on a memory-only
// server; the peer_* fields are zero outside a fleet.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`

	PeerFetches int64 `json:"peer_fetches"`
	PeerHits    int64 `json:"peer_hits"`

	DiskEnabled     bool  `json:"disk_enabled"`
	Degraded        bool  `json:"degraded"`
	DegradedEvents  int64 `json:"degraded_events"`
	DiskHits        int64 `json:"disk_hits"`
	DiskMisses      int64 `json:"disk_misses"`
	DiskBad         int64 `json:"disk_bad"`
	DiskEntries     int   `json:"disk_entries"`
	DiskBytes       int64 `json:"disk_bytes"`
	DiskWrites      int64 `json:"disk_writes"`
	DiskEvictions   int64 `json:"disk_evictions"`
	DiskQuarantined int64 `json:"disk_quarantined"`
	DiskIOErrors    int64 `json:"disk_io_errors"`
}

func (c *traceCache) stats() CacheStats {
	c.mu.Lock()
	n := 0
	for _, e := range c.m {
		if e.stored {
			n++
		}
	}
	bytes := c.bytes
	c.mu.Unlock()
	cs := CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Entries:     n,
		Bytes:       bytes,
		PeerFetches: c.peerFetches.Load(),
		PeerHits:    c.peerHits.Load(),
	}
	if c.disk != nil {
		ds := c.disk.StatsSnapshot()
		cs.DiskEnabled = true
		cs.Degraded = !c.diskOK.Load()
		cs.DegradedEvents = c.degradedEvents.Load()
		cs.DiskHits = c.diskHits.Load()
		cs.DiskMisses = c.diskMisses.Load()
		cs.DiskBad = c.diskBad.Load()
		cs.DiskEntries = ds.Entries
		cs.DiskBytes = ds.Bytes
		cs.DiskWrites = ds.Writes
		cs.DiskEvictions = ds.Evictions
		cs.DiskQuarantined = ds.Quarantined
		cs.DiskIOErrors = ds.IOErrors
	}
	return cs
}
