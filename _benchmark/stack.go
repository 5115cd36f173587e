package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/serving"
	"repro/internal/statestore"
)

// replica is one in-process server with its HTTP and wire listeners.
type replica struct {
	st       *statestore.Store
	tap      *storeTap // non-nil in a traced run
	srv      *server.Server
	url      string
	wireAddr string
}

// follower is one replication.Follower tailing a replica into its own
// durable store.
type follower struct {
	st      *statestore.Store
	f       *replication.Follower
	primary *replica
}

// stack is the serving stack of one workload: one replica, or replicas
// with followers behind a router. base is the HTTP front door (control
// plane, and the JSON data plane of the cluster); wireAddr is the wire
// front door.
type stack struct {
	replicas  []*replica
	followers []*follower
	router    *cluster.Router
	routerSrv *http.Server
	routerTap *handlerTap // non-nil in a traced cluster run
	base      string
	wireAddr  string
	dir       string
	ctl       *http.Client
}

// startStack brings a workload's stack to ready: stores open, listeners
// serving, replicas healthy, router healthy and followers bootstrapped.
// Tracing wraps the stores and the router handler.
func startStack(w *workload, m *core.Model, dir string, tr *tracer) (*stack, error) {
	s := &stack{dir: dir, ctl: &http.Client{Timeout: 2 * time.Minute}}
	if err := s.start(w, m, tr); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(w *workload, m *core.Model, tr *tracer) error {
	n := 1
	if w.cluster {
		n = 3
	}
	for i := 0; i < n; i++ {
		r, err := s.startReplica(w, m, filepath.Join(s.dir, "r"+strconv.Itoa(i)), tr)
		if r != nil {
			s.replicas = append(s.replicas, r)
		}
		if err != nil {
			return err
		}
	}
	for _, r := range s.replicas {
		if err := waitHealthy(s.ctl, r.url); err != nil {
			return err
		}
	}
	if !w.cluster {
		s.base, s.wireAddr = s.replicas[0].url, s.replicas[0].wireAddr
		return nil
	}
	for i, r := range s.replicas {
		st, err := statestore.Open(statestore.Options{Dir: filepath.Join(s.dir, "f"+strconv.Itoa(i)), Codec: w.codec})
		if err != nil {
			return fmt.Errorf("opening follower store: %w", err)
		}
		f := replication.NewFollower(st, r.url)
		f.Start()
		s.followers = append(s.followers, &follower{st: st, f: f, primary: r})
	}
	urls := make([]string, len(s.replicas))
	wireAddrs := map[string]string{}
	for i, r := range s.replicas {
		urls[i] = r.url
		wireAddrs[r.url] = r.wireAddr
	}
	router, err := cluster.New(cluster.Options{Replicas: urls, WireAddrs: wireAddrs})
	if err != nil {
		return fmt.Errorf("building router: %w", err)
	}
	s.router = router
	var h http.Handler = router
	if tr != nil {
		s.routerTap = &handlerTap{next: router, tr: tr}
		h = s.routerTap
	}
	hl, err := listen()
	if err != nil {
		return err
	}
	s.routerSrv = &http.Server{Handler: h}
	go s.routerSrv.Serve(hl)
	wl, err := listen()
	if err != nil {
		return err
	}
	go router.ServeWire(wl)
	s.base, s.wireAddr = "http://"+hl.Addr().String(), wl.Addr().String()
	if err := waitHealthy(s.ctl, s.base); err != nil {
		return err
	}
	return s.waitFollowers(10 * time.Second)
}

func (s *stack) startReplica(w *workload, m *core.Model, dir string, tr *tracer) (*replica, error) {
	opts := statestore.Options{Codec: w.codec}
	if w.durable {
		opts.Dir = dir
	}
	st, err := statestore.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("opening replica store: %w", err)
	}
	r := &replica{st: st}
	var store serving.Store = st
	if tr != nil {
		r.tap = &storeTap{next: st}
		store = r.tap
	}
	so := server.Options{Model: m, Store: store, Threshold: 0.5, Precision: w.tier}
	if w.durable {
		so.State = st
	}
	r.srv = server.New(so)
	hl, err := listen()
	if err != nil {
		return r, err
	}
	go r.srv.Serve(hl)
	wl, err := listen()
	if err != nil {
		return r, err
	}
	go r.srv.ServeWire(wl)
	r.url, r.wireAddr = "http://"+hl.Addr().String(), wl.Addr().String()
	return r, nil
}

// waitFollowers waits until every follower has bootstrapped from its
// primary and applied the primary's newest WAL record.
func (s *stack) waitFollowers(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		behind := 0
		for _, f := range s.followers {
			st := f.f.Status()
			if !st.Connected || st.Bootstraps == 0 || st.LastSeq < f.primary.st.WALSeq() {
				behind++
			}
		}
		if behind == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d follower(s) not caught up after %s", behind, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop tears the stack down: followers first (so they do not chase a
// primary that is going away), then the router, then the replicas with a
// final snapshot each, then the stores.
func (s *stack) stop() {
	for _, f := range s.followers {
		f.f.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.routerSrv != nil {
		s.routerSrv.Shutdown(ctx)
	}
	if s.router != nil {
		s.router.CloseWire()
	}
	for _, r := range s.replicas {
		if r.srv != nil {
			r.srv.Shutdown(ctx)
		}
		r.st.Close()
	}
	for _, f := range s.followers {
		f.st.Close()
	}
	s.ctl.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

func listen() (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	return l, nil
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 10s (last error: %v)", base, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
