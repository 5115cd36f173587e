package main

import (
	"fmt"
	"strconv"

	"repro/internal/server"
)

// session is one replay-log session in compact form. The generator keeps
// the whole cohort resident, so the form is small: the program under test,
// not the log, should dominate the live heap.
type session struct {
	ts     int64
	user   int32
	idx    int32 // the user's session index in the base log
	cat    [2]uint8
	access bool
}

// stream is a workload's input: the seeded MobileTab replay log, repeated
// in passes so a fast run never runs out. Pass p shifts every timestamp by
// p*shift and suffixes session IDs with ".p<p>", so per-user order and ID
// uniqueness hold across passes. Global session g is base[g%n] in pass g/n.
type stream struct {
	base  []session
	shift int64
}

// newStream builds the stream from server.ReplayLog, the cohort every
// serving tool in the repository derives its traffic from.
func newStream(users int, seed uint64) (*stream, error) {
	log := server.ReplayLog(users, seed)
	if len(log) == 0 {
		return nil, fmt.Errorf("replay log for %d users is empty", users)
	}
	st := &stream{base: make([]session, len(log))}
	next := map[int]int32{}
	for i, ev := range log {
		if len(ev.Cat) != 2 || ev.Cat[0] > 255 || ev.Cat[1] > 255 {
			return nil, fmt.Errorf("session %s: context %v does not fit the compact form", ev.SID, ev.Cat)
		}
		st.base[i] = session{
			ts:     ev.Ts,
			user:   int32(ev.User),
			idx:    next[ev.User],
			cat:    [2]uint8{uint8(ev.Cat[0]), uint8(ev.Cat[1])},
			access: ev.Access,
		}
		next[ev.User]++
	}
	const day = 86400
	st.shift = log[len(log)-1].Ts - log[0].Ts + day
	return st, nil
}

// at returns global session g with its pass applied.
func (st *stream) at(g int) (session, int) {
	pass := g / len(st.base)
	s := st.base[g%len(st.base)]
	s.ts += int64(pass) * st.shift
	return s, pass
}

// sid is the session ID the generator sends for s in the given pass.
func (s session) sid(pass int) string {
	id := "u" + strconv.Itoa(int(s.user)) + "-s" + strconv.Itoa(int(s.idx))
	if pass > 0 {
		id += ".p" + strconv.Itoa(pass)
	}
	return id
}

// catInts widens the context into dst for the APIs that take []int.
func (s session) catInts(dst *[2]int) []int {
	dst[0], dst[1] = int(s.cat[0]), int(s.cat[1])
	return dst[:]
}

// laneOf pins a user to one of n client connections, so every request of
// a user rides one connection in order.
func laneOf(user int32, n int) int {
	return int((uint32(user) * 2654435761 >> 16) % uint32(n))
}

// connLists splits the base log by lane: list c holds, in log order, the
// base indices of the sessions whose users ride connection c.
func (st *stream) connLists(n int) [][]int {
	lists := make([][]int, n)
	for i, s := range st.base {
		c := laneOf(s.user, n)
		lists[c] = append(lists[c], i)
	}
	return lists
}

// connSession is the k-th session connection list l sends, as a global
// index.
func (st *stream) connSession(l []int, k int) int {
	return (k/len(l))*len(st.base) + l[k%len(l)]
}
