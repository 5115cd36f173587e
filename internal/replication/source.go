package replication

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serving"
	"repro/internal/statestore"
	"repro/internal/wire"
)

const (
	// defaultWindow is the in-flight window in records: the source stops
	// sending when this many records are unacknowledged, so a stalled
	// follower applies backpressure instead of ballooning socket buffers.
	defaultWindow = 4096
	// tailBatch bounds how many records one TailFrom call drains before
	// the writer flushes.
	tailBatch = 512
	// heartbeatEvery is how often an idle source tells the follower it is
	// alive (and ships the virtual clock forward).
	heartbeatEvery = 200 * time.Millisecond
)

// Source is the primary side: it serves replication sessions over
// hijacked connections, streaming the store's tail to each subscriber.
// One Source serves any number of concurrent subscribers (the production
// topology uses one follower; re-replication after a failover briefly
// adds a second).
type Source struct {
	st     *statestore.Store
	epoch  string
	window int

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

// subscriber is one live session, tracked for status and shutdown.
type subscriber struct {
	conn  net.Conn
	addr  string
	sent  atomic.Int64
	acked atomic.Int64
	// ackNote wakes the writer when an ack opens the window; buffered so
	// the reader never blocks on it.
	ackNote chan struct{}
	done    chan struct{} // closed when the ack reader exits
}

// SubscriberStatus is one session's progress for /replicate/status.
type SubscriberStatus struct {
	Addr  string `json:"addr"`
	Sent  int64  `json:"sent"`
	Acked int64  `json:"acked"`
}

// SourceStatus is the primary-side half of /replicate/status.
type SourceStatus struct {
	Epoch       string             `json:"epoch"`
	WALSeq      int64              `json:"wal_seq"`
	SnapSeq     int64              `json:"snap_seq"`
	Subscribers []SubscriberStatus `json:"subscribers"`
}

// NewSource wraps a store for serving. The epoch is random per
// incarnation: a follower position issued under any other epoch is
// re-bootstrapped, which fences sequence-number collisions across primary
// restarts.
func NewSource(st *statestore.Store) *Source {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("replication: reading random epoch: " + err.Error())
	}
	return &Source{
		st:     st,
		epoch:  hex.EncodeToString(b[:]),
		window: defaultWindow,
		subs:   make(map[*subscriber]struct{}),
	}
}

// Epoch returns the source's incarnation fence.
func (s *Source) Epoch() string { return s.epoch }

// Status snapshots the source's progress and its live subscribers.
func (s *Source) Status() SourceStatus {
	st := SourceStatus{
		Epoch:   s.epoch,
		WALSeq:  s.st.WALSeq(),
		SnapSeq: s.st.SnapSeq(),
	}
	s.mu.Lock()
	for sub := range s.subs {
		st.Subscribers = append(st.Subscribers, SubscriberStatus{
			Addr: sub.addr, Sent: sub.sent.Load(), Acked: sub.acked.Load(),
		})
	}
	s.mu.Unlock()
	return st
}

// Close terminates every live session (their handler goroutines return)
// and refuses new ones.
func (s *Source) Close() {
	s.mu.Lock()
	s.closed = true
	subs := make([]*subscriber, 0, len(s.subs))
	for sub := range s.subs {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		sub.conn.Close()
	}
}

func (s *Source) register(sub *subscriber) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.subs[sub] = struct{}{}
	return true
}

func (s *Source) unregister(sub *subscriber) {
	s.mu.Lock()
	delete(s.subs, sub)
	s.mu.Unlock()
}

// Serve runs one replication session on a hijacked connection until the
// peer disappears or the source closes. It always closes conn before
// returning.
func (s *Source) Serve(conn net.Conn, rw *bufio.ReadWriter) error {
	defer conn.Close()
	sub := &subscriber{
		conn:    conn,
		addr:    conn.RemoteAddr().String(),
		ackNote: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if !s.register(sub) {
		return errors.New("replication: source closed")
	}
	defer s.unregister(sub)

	typ, payload, err := wire.ReadFrame(rw.Reader, nil)
	if err != nil {
		return err
	}
	if typ != fSubscribe {
		return errors.New("replication: expected subscribe frame")
	}
	var req subscribeReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return err
	}

	// From here the reader goroutine owns rw.Reader (acks only) and this
	// goroutine owns the writer. The reader closing done (peer gone) is
	// the session's cancellation signal.
	go s.readAcks(rw.Reader, sub)

	err = s.stream(rw.Writer, sub, req)
	// Unblock the reader (it is parked in a Read) and wait for it so the
	// handler goroutine owns the full session lifetime.
	conn.Close()
	<-sub.done
	return err
}

// stream writes the session: an optional bootstrap, then the tail. A tail
// position that falls off the ring mid-session (the follower stalled for
// longer than the buffer retains) restarts with a fresh bootstrap on the
// same connection.
func (s *Source) stream(w *bufio.Writer, sub *subscriber, req subscribeReq) error {
	fw := wire.NewWriter(w)
	var scratch []byte
	next := req.Seq
	if req.Epoch != s.epoch {
		// Positions from another incarnation (or none) are meaningless
		// here; force a bootstrap below by making the probe fail.
		next = -1
	}
	hb := time.NewTimer(heartbeatEvery)
	defer hb.Stop()
	started := false
	for {
		var recs []statestore.WALRecord
		var wake <-chan struct{}
		var err error
		if next >= 0 {
			recs, wake, err = s.st.TailFrom(next, tailBatch)
		} else {
			err = statestore.ErrTailTruncated
		}
		if err != nil {
			if next, err = s.bootstrap(fw, &scratch, req.Arcs); err != nil {
				return err
			}
			started = true
			continue
		}
		if !started {
			if err := writeJSON(fw, fTailStart, hello{Epoch: s.epoch}); err != nil {
				return err
			}
			started = true
		}
		if len(recs) == 0 {
			if err := w.Flush(); err != nil {
				return err
			}
			if !hb.Stop() {
				select {
				case <-hb.C:
				default:
				}
			}
			hb.Reset(heartbeatEvery)
			select {
			case <-wake:
			case <-hb.C:
				if err := writeHeartbeat(fw, next-1, s.st.Clock()); err != nil {
					return err
				}
				if err := w.Flush(); err != nil {
					return err
				}
			case <-sub.done:
				return errors.New("replication: subscriber gone")
			}
			continue
		}
		for _, rec := range recs {
			if len(req.Arcs) > 0 && rec.Key != "" && !arcsContain(req.Arcs, serving.KeyHash(rec.Key)) {
				continue
			}
			if err := writeRecord(fw, &scratch, rec.Seq, rec.Op, rec.Key, rec.Val); err != nil {
				return err
			}
		}
		next = recs[len(recs)-1].Seq + 1
		sub.sent.Store(next - 1)
		if err := w.Flush(); err != nil {
			return err
		}
		if err := s.waitWindow(sub, next-1); err != nil {
			return err
		}
	}
}

// waitWindow blocks while the in-flight window is full. The reader's ack
// notifications (or its exit) wake it.
func (s *Source) waitWindow(sub *subscriber, sent int64) error {
	for sent-sub.acked.Load() >= int64(s.window) {
		select {
		case <-sub.ackNote:
		case <-sub.done:
			return errors.New("replication: subscriber gone")
		}
	}
	return nil
}

// bootstrap streams the full (arc-filtered) state through the Export seam
// and names the tail position that follows it. Records committed while
// the export runs may be both in the export and re-delivered by the tail;
// replay is idempotent (absolute values), so the follower converges
// either way.
func (s *Source) bootstrap(fw *wire.Writer, scratch *[]byte, arcs []Arc) (next int64, err error) {
	from := s.st.WALSeq() + 1
	if err := writeJSON(fw, fBootStart, hello{Epoch: s.epoch}); err != nil {
		return 0, err
	}
	match := func(string) bool { return true }
	if len(arcs) > 0 {
		match = func(key string) bool { return arcsContain(arcs, serving.KeyHash(key)) }
	}
	err = s.st.Export(match, func(key string, stored []byte) error {
		return writeBootEntry(fw, scratch, key, stored)
	})
	if err != nil {
		return 0, err
	}
	if err := writeSeq(fw, fBootEnd, from); err != nil {
		return 0, err
	}
	return from, fw.Flush()
}

// readAcks drains follower frames, publishing ack positions. Any read
// error (including the peer closing) ends the session via done.
func (s *Source) readAcks(r *bufio.Reader, sub *subscriber) {
	defer close(sub.done)
	var buf []byte
	for {
		typ, payload, err := wire.ReadFrame(r, buf)
		if err != nil {
			return
		}
		buf = payload[:0]
		if typ != fAck {
			return
		}
		seq, err := parseSeq(payload)
		if err != nil {
			return
		}
		if seq > sub.acked.Load() {
			sub.acked.Store(seq)
		}
		select {
		case sub.ackNote <- struct{}{}:
		default:
		}
	}
}
