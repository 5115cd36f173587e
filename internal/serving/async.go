package serving

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
)

// The async submit/notify seam: a request-driven server cannot live inside
// the synchronous drain loop (Advance finalising due sessions inline on the
// caller's goroutine), because finalisation is the expensive part and must
// be coalesced across concurrent requests. SetSink inverts the processor
// into an ingest-only front half — session buffers, finalisation timers,
// virtual clock — that hands due sessions to an external sink in drain
// order, and BatchFinalizer is the matching back half: it applies groups of
// due sessions through the wave-partitioned batched GEMM cell, preserving
// the same per-user ordering and byte-identity guarantees as inline
// finalisation (which runs through a BatchFinalizer of its own). Lanes
// (lanes.go) is the concurrent form of that back half: SetSink(lanes.Submit)
// parks due sessions in bounded per-user-hashed queues whose flushers
// coalesce them on max-batch/max-wait, for the online server and the
// multi-worker replays alike.

// DueSession is one finalisation-ready session: the joined view of a
// session's start context and access events at the moment its timer fires.
// It is what an async sink finalises.
type DueSession struct {
	UserID   int
	Start    int64
	Cat      []int
	Accessed bool
}

// SetSink diverts due sessions to sink instead of finalising them inline:
// Advance becomes a non-blocking submit path and the sink owner decides
// when (and how batched) the GRU updates run. The sink is called in drain
// order while the processor's invariants hold, so a sink that preserves
// per-user FIFO order (e.g. hash-partitioned queues) keeps stored states
// byte-identical to the inline path. Passing nil restores inline
// finalisation.
func (p *StreamProcessor) SetSink(sink func(DueSession)) { p.sink = sink }

// BatchFinalizer applies groups of due sessions through the batched GEMM
// cell: groups are wave-partitioned by per-user step depth, waves run sequentially, and stored states stay
// byte-identical to per-session finalisation. A finalizer owns its scratch,
// so each instance must be used from one goroutine at a time (one per queue
// flusher); the store may be shared.
type BatchFinalizer struct {
	model    *core.Model
	store    Store
	sc       *batchScratch   // f64 tier
	sc32     *batchScratch32 // f32 tier (nil unless constructed with TierF32)
	maxBatch int
}

// NewBatchFinalizerTier sizes the finalizer's scratch for groups of up to
// maxBatch sessions (larger inputs are chunked) on the given compute tier,
// fixed for the finalizer's lifetime. TierF32 requires a cell with an f32
// inference tier (see StreamProcessor.SetPrecision); only the selected
// tier's scratch is allocated.
func NewBatchFinalizerTier(model *core.Model, store Store, maxBatch int, tier nn.PrecisionTier) (*BatchFinalizer, error) {
	if maxBatch < 1 {
		maxBatch = 1
	}
	f := &BatchFinalizer{
		model:    model,
		store:    store,
		maxBatch: maxBatch,
	}
	if tier == nn.TierF32 {
		if !model.SupportsF32() {
			return nil, fmt.Errorf("serving: %s cell has no f32 inference tier", model.Cfg.Cell)
		}
		f.sc32 = newBatchScratch32(model, maxBatch)
	} else {
		f.sc = newBatchScratch(model, maxBatch)
	}
	return f, nil
}

// Finalize runs the GRU update for every session in due, in order. The
// slice may hold several sessions of the same user; the wave partition
// keeps their updates ordered.
func (f *BatchFinalizer) Finalize(due []DueSession) {
	for len(due) > 0 {
		n := min(len(due), f.maxBatch)
		if f.sc32 != nil {
			applySessionUpdateBatch32(f.model, f.store, due[:n], f.sc32)
		} else {
			applySessionUpdateBatch(f.model, f.store, due[:n], f.sc)
		}
		due = due[n:]
	}
}

// StateDigest hashes the store's entire resident state — every key and its
// wire-format value — into a 256-bit hex digest, and reports how many
// states it covered. Two stores hold byte-identical states iff their
// digests match, which is how the HTTP serving path proves parity with
// in-process sequential replay without shipping every hidden state over
// the wire.
//
// The construction is order-independent: each (key, value) entry is framed
// and hashed on its own (SHA-256), and the per-entry hashes are summed as
// 256-bit integers mod 2^256. Entry order therefore cannot matter, and —
// because every key lives in exactly one store — the digests of stores
// holding disjoint key sets combine with CombineDigests into exactly the
// digest one store holding their union would report. That additivity is
// what lets a user-sharded cluster aggregate per-replica digests into a
// value directly comparable to the single-process sequential digest.
//
// Reads go through Get, so the store's access counters advance; take a
// digest after accounting, not before.
func StateDigest(store Store) (digest string, keys int) {
	var acc [sha256.Size]byte
	var frame [8]byte
	for _, k := range store.Keys() {
		v, ok := store.Get(k)
		if !ok {
			continue
		}
		h := sha256.New()
		binary.LittleEndian.PutUint64(frame[:], uint64(len(k)))
		h.Write(frame[:])
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(frame[:], uint64(len(v)))
		h.Write(frame[:])
		h.Write(v)
		addDigest(&acc, h.Sum(nil))
		keys++
	}
	return hex.EncodeToString(acc[:]), keys
}

// CombineDigests sums StateDigest values over disjoint key sets: the result
// equals the digest of a single store holding the union of the inputs'
// states. The empty digest (zero keys) is the identity. Inputs must be the
// 64-hex-char values StateDigest produces.
func CombineDigests(digests ...string) (string, error) {
	var acc [sha256.Size]byte
	for _, d := range digests {
		b, err := hex.DecodeString(d)
		if err != nil || len(b) != sha256.Size {
			return "", fmt.Errorf("serving: malformed digest %q", d)
		}
		addDigest(&acc, b)
	}
	return hex.EncodeToString(acc[:]), nil
}

// addDigest accumulates b into acc as little-endian 256-bit integers
// mod 2^256.
func addDigest(acc *[sha256.Size]byte, b []byte) {
	var carry uint16
	for i := 0; i < sha256.Size; i++ {
		carry += uint16(acc[i]) + uint16(b[i])
		acc[i] = byte(carry)
		carry >>= 8
	}
}
