package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/serving"
	"repro/internal/statestore"
)

// dueChunk is how many due sessions replayDue hands over at a time.
const dueChunk = 4096

// replayDue replays sessions (sorted global indices) through a sequential
// StreamProcessor whose sink collects the due sessions, and hands them to
// emit in drain order, in chunks.
func replayDue(m *core.Model, in *stream, sessions []int, emit func([]serving.DueSession)) error {
	scratch, err := statestore.Open(statestore.Options{})
	if err != nil {
		return err
	}
	p := serving.NewStreamProcessor(m, scratch)
	due := make([]serving.DueSession, 0, dueChunk)
	p.SetSink(func(d serving.DueSession) {
		if due = append(due, d); len(due) == dueChunk {
			emit(due)
			due = due[:0]
		}
	})
	var cat [2]int
	for _, g := range sessions {
		s, pass := in.at(g)
		sid := s.sid(pass)
		p.OnSessionStart(sid, int(s.user), s.ts, s.catInts(&cat))
		if s.access {
			p.OnAccess(sid, s.ts+30)
		}
	}
	p.Flush()
	emit(due)
	return nil
}

// referenceBatch is the reference's finalisation batch.
const referenceBatch = 32

// referenceReplay computes the states the server must hold after
// accepting sessions (sorted global indices): a sequential StreamProcessor
// replay at the run's tier whose due sessions are finalised in full
// batches through BatchFinalizer. The batches differ from the ones the
// server formed from its traffic, and stored states do not depend on
// batch composition (the repository's GEMM bit-identity contract, pinned
// against per-session finalisation by its tests). A user's state depends
// only on that user's sessions, so users are split into GOMAXPROCS
// partitions replayed concurrently, whose stores are then merged.
func referenceReplay(m *core.Model, tier nn.PrecisionTier, in *stream, accepted []int) (*statestore.Store, error) {
	parts := runtime.GOMAXPROCS(0)
	stores := make([]*statestore.Store, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int
			for _, g := range accepted {
				if s, _ := in.at(g); laneOf(s.user, parts) == i {
					mine = append(mine, g)
				}
			}
			st, err := statestore.Open(statestore.Options{})
			if err != nil {
				errs[i] = err
				return
			}
			fin, err := serving.NewBatchFinalizerTier(m, st, referenceBatch, tier)
			if err != nil {
				errs[i] = err
				return
			}
			stores[i], errs[i] = st, replayDue(m, in, mine, fin.Finalize)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	ref := stores[0]
	for _, st := range stores[1:] {
		for _, k := range st.Keys() {
			v, _ := st.Get(k)
			ref.Put(k, v)
		}
	}
	return ref, nil
}

// gateReport records the correctness gates of one run.
type gateReport struct {
	Passed             bool           `json:"passed"`
	Failures           []string       `json:"failures,omitempty"`
	Digest             string         `json:"digest"`
	Keys               int            `json:"keys"`
	ReferenceDigest    string         `json:"reference_digest"`
	ReferenceKeys      int            `json:"reference_keys"`
	Followers          []followerGate `json:"followers,omitempty"`
	ReadbackChecked    int            `json:"readback_checked"`
	ReadbackMismatches int            `json:"readback_mismatches"`
}

type followerGate struct {
	Primary  string `json:"primary_digest"`
	Follower string `json:"follower_digest"`
}

// checkGates compares the served state with a sequential in-process
// StreamProcessor replay of the accepted sessions at the run's tier:
// the stack's digest (the router's aggregate for the cluster), each
// follower's digest against its primary's, and every read-back answer bit
// for bit against the reference prediction service. It returns the
// reference store.
func (o *outcome) checkGates(m *core.Model) (serving.Store, error) {
	g := &o.gate
	st := o.rc.st
	var dig struct {
		Keys   int    `json:"keys"`
		Digest string `json:"digest"`
	}
	if err := getJSON(st.ctl, st.base+"/digest", &dig); err != nil {
		return nil, err
	}
	g.Digest, g.Keys = dig.Digest, dig.Keys

	ref, err := referenceReplay(m, o.w.tier, o.rc.in, o.rc.accepted)
	if err != nil {
		return nil, err
	}
	g.ReferenceDigest, g.ReferenceKeys = serving.StateDigest(ref)
	if g.Digest != g.ReferenceDigest || g.Keys != g.ReferenceKeys {
		g.Failures = append(g.Failures, fmt.Sprintf("served digest %s (%d keys) != reference %s (%d keys)", g.Digest, g.Keys, g.ReferenceDigest, g.ReferenceKeys))
	}

	for i, f := range st.followers {
		var pd struct {
			Digest string `json:"digest"`
		}
		if err := getJSON(st.ctl, f.primary.url+"/digest", &pd); err != nil {
			return nil, err
		}
		fd, _ := serving.StateDigest(f.st)
		g.Followers = append(g.Followers, followerGate{Primary: pd.Digest, Follower: fd})
		if fd != pd.Digest {
			g.Failures = append(g.Failures, fmt.Sprintf("follower %d digest %s != primary %s", i, fd, pd.Digest))
		}
	}

	svc := serving.NewPredictionService(m, ref, 0.5)
	var cat [2]int
	for _, r := range o.rc.readback {
		if !r.ok {
			continue
		}
		g.ReadbackChecked++
		want := svc.OnSessionStart(int(r.s.user), r.ts, r.s.catInts(&cat)).Probability
		if math.Float64bits(want) != math.Float64bits(r.reply.Probability) {
			g.ReadbackMismatches++
		}
	}
	if g.ReadbackMismatches > 0 {
		g.Failures = append(g.Failures, fmt.Sprintf("%d of %d read-back predictions differ from the reference", g.ReadbackMismatches, g.ReadbackChecked))
	}
	if g.ReadbackChecked == 0 {
		g.Failures = append(g.Failures, "no read-back prediction succeeded")
	}
	g.Passed = len(g.Failures) == 0
	return ref, nil
}
