package server

import (
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/trace"
)

// TestCacheEvictVsSingleFlight hammers a tiny-budget cache from many
// goroutines over a small key space, so evictions constantly race in-flight
// captures of the same keys, with periodic capture failures exercising the
// delete-on-error path against concurrent completions. Run under -race (the
// `make race` sweep), it checks the accounting invariants that a lost
// update would silently bend: every call is exactly one hit or one miss,
// every miss is exactly one capture, and the byte ledger equals the stored
// entries exactly.
func TestCacheEvictVsSingleFlight(t *testing.T) {
	prog := asm.MustAssemble("smoke", SmokeAsm)
	seed := trace.Capture(emu.New(prog))
	if seed.Err() != nil {
		t.Fatal(seed.Err())
	}
	blob, err := seed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	entrySize := int64(seed.Len()) * 32

	// Budget for ~2 of the 8 keys: completions beyond that always evict.
	c := newTraceCache(2*entrySize+1, nil, slog.New(slog.NewTextHandler(io.Discard, nil)))
	errInjected := errors.New("injected capture failure")

	const (
		goroutines = 8
		iters      = 400
		keys       = 8
	)
	var calls, captures, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				var key cacheKey
				key[0] = byte(rng.Intn(keys))
				calls.Add(1)
				tr, _, _, err := c.do(key, func() (*trace.Trace, core.EngineStats, error) {
					if captures.Add(1)%7 == 0 {
						failures.Add(1)
						return nil, core.EngineStats{}, errInjected
					}
					t2, err := trace.UnmarshalBinary(blob)
					return t2, core.EngineStats{}, err
				})
				switch {
				case err != nil:
					if !errors.Is(err, errInjected) {
						t.Errorf("unexpected do error: %v", err)
					}
				case tr.Len() != seed.Len():
					t.Errorf("served trace has %d records, want %d", tr.Len(), seed.Len())
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.stats()
	if got := st.Hits + st.Misses + failures.Load(); got != calls.Load() {
		t.Errorf("call ledger: hits %d + misses %d + failures %d = %d, want %d calls",
			st.Hits, st.Misses, failures.Load(), got, calls.Load())
	}
	if got := st.Misses + failures.Load(); got != captures.Load() {
		t.Errorf("capture ledger: misses %d + failures %d = %d, want %d captures",
			st.Misses, failures.Load(), got, captures.Load())
	}
	if st.Bytes != int64(st.Entries)*entrySize {
		t.Errorf("byte ledger: %d bytes for %d entries of %d", st.Bytes, st.Entries, entrySize)
	}
	// Eviction may overshoot transiently but must settle within one entry
	// of the budget once all flights land.
	if st.Bytes > 2*entrySize+1+entrySize {
		t.Errorf("bytes %d never settled under budget %d", st.Bytes, 2*entrySize+1)
	}

	// The cache must still serve: every key resolves to a full-length trace.
	for k := 0; k < keys; k++ {
		var key cacheKey
		key[0] = byte(k)
		tr, _, _, err := c.do(key, func() (*trace.Trace, core.EngineStats, error) {
			t2, err := trace.UnmarshalBinary(blob)
			return t2, core.EngineStats{}, err
		})
		if err != nil || tr.Len() != seed.Len() {
			t.Errorf("key %d unservable after the storm: %v", k, err)
		}
	}
}

// TestCacheAccountDisplacedEntry replays, step by step, the interleaving
// the hammer above finds only sometimes: a waiter queued on an entry whose
// capture fails finds the key unmapped, and while it captures, a fresh
// submission captures and accounts the key under a new entry. When the
// waiter's capture is accounted it displaces that entry, whose bytes must
// leave the ledger with it — an unmapped entry can never be evicted.
func TestCacheAccountDisplacedEntry(t *testing.T) {
	seed := trace.Capture(emu.New(asm.MustAssemble("smoke", SmokeAsm)))
	if seed.Err() != nil {
		t.Fatal(seed.Err())
	}
	entrySize := int64(seed.Len()) * 32
	c := newTraceCache(1<<30, nil, slog.New(slog.NewTextHandler(io.Discard, nil)))
	var key cacheKey
	capture := func() (*trace.Trace, core.EngineStats, error) { return seed, core.EngineStats{}, nil }

	// The waiter's entry: mapped once, then unmapped by the failed capture.
	waiter := &cacheEnt{}
	// The fresh submission's entry, captured and accounted meanwhile.
	if _, _, prov, err := c.do(key, capture); err != nil || prov != provCapture {
		t.Fatalf("fresh capture: prov %v, err %v", prov, err)
	}
	// The waiter's own capture lands.
	waiter.mu.Lock()
	waiter.tr, waiter.ready = seed, true
	c.account(key, waiter)
	waiter.mu.Unlock()

	if st := c.stats(); st.Entries != 1 || st.Bytes != entrySize {
		t.Fatalf("byte ledger: %d bytes for %d entries of %d", st.Bytes, st.Entries, entrySize)
	}
	if tr, _, prov, err := c.do(key, capture); err != nil || prov != provMemory || tr != seed {
		t.Fatalf("key after the displacement: prov %v, err %v", prov, err)
	}
}
