package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/wire"
)

// smallfile: two closed-loop clients on sorrento-(8,2) at the paper's op
// costs and data scale 1. Each repeats sessions in its own directory:
// create, write 12 KiB and close (the commit); open, read and close;
// unlink. Its cost is round trips — namespace, 2PC, location lookups and
// per-RPC OpCost — while NICs and disks stay nearly idle and the data fits
// every provider cache, so a bandwidth change must show nothing here.
var smallfileWorkload = workload{
	// Time 1: modeled time is wall-coupled, so host CPU time and any stall
	// of the process are amplified by 1/Time. At 0.1 a busy shared host
	// moved the p50s by up to 20 % between runs.
	scale: bench.Scale{Time: 1, Data: 1},
	opts:  bench.SorrentoOptions{Providers: 8, ReplDeg: 2},
	// A traced run's untraced half sees about 170 sessions.
	tailQ: 0.9,
	setup: setupSmallfile,
}

const (
	smallfileSize    = 12 << 10
	smallfileStreams = 2
	// smallfileKeep is how many files each stream leaves behind after the
	// measured phase to measure small-file storage overhead.
	smallfileKeep = 64
)

type smallfile struct {
	e       *env
	seed    int64
	clients []*core.Client
	attrs   wire.FileAttrs
	next    []int // per-stream session counter
}

func setupSmallfile(e *env, seed int64) (instance, error) {
	s := &smallfile{e: e, seed: seed, attrs: wire.FileAttrs{ReplDeg: 2, Alpha: 0.5}, next: make([]int, smallfileStreams)}
	for i := 0; i < smallfileStreams; i++ {
		cl, err := e.newClient(fmt.Sprintf("sf%d", i))
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	if err := e.awaitMembers(); err != nil {
		return nil, err
	}
	for i, cl := range s.clients {
		if err := cl.Mkdir(fmt.Sprintf("/sf%d", i)); err != nil {
			return nil, fmt.Errorf("mkdir: %w", err)
		}
	}
	return s, nil
}

func (s *smallfile) run(h *harness, rec *recorder) error {
	h.window(nil, time.Second, s.drive)
	h.window(rec, h.wall, s.drive)
	return s.storageProbe(rec)
}

func (s *smallfile) drive(w *window) {
	var wg sync.WaitGroup
	for i := range s.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !w.over() {
				s.session(w, i)
			}
		}(i)
	}
	wg.Wait()
}

// session runs create+write+close, open+read+close and unlink on one fresh
// file; a failed step ends the session.
func (s *smallfile) session(w *window, i int) {
	cl, clock, tr := s.clients[i], s.e.clock, s.e.tr
	n := s.next[i]
	s.next[i]++
	path := fmt.Sprintf("/sf%d/f%07d", i, n)
	data := make([]byte, smallfileSize)
	fill(data, payloadKey(s.seed, 1, int64(i), int64(n)))

	start := clock.Now()
	counted := w.counts(start)
	op := tr.begin(cl.Name(), "write")
	err := createFile(cl, path, data, s.attrs)
	tr.end(op, err)
	if counted {
		w.rec.op("write", clock.Now()-start, err, smallfileSize, true)
	}
	if err != nil {
		return
	}

	start = clock.Now()
	op = tr.begin(cl.Name(), "read")
	got, err := readAt(cl, path, 0, smallfileSize)
	tr.end(op, err)
	if counted {
		if err == nil && !bytes.Equal(got, data) {
			w.rec.mismatch("read")
		} else {
			w.rec.op("read", clock.Now()-start, err, smallfileSize, false)
		}
	}
	if err != nil {
		return
	}

	start = clock.Now()
	op = tr.begin(cl.Name(), "unlink")
	err = cl.Remove(path)
	tr.end(op, err)
	if counted {
		w.rec.op("unlink", clock.Now()-start, err, 0, false)
		if err == nil {
			w.rec.session()
		}
	}
}

// storageProbe leaves smallfileKeep committed files per stream, waits for
// replication to settle, and records stored bytes per user byte: the
// storage overhead of small files (replicas plus index segments).
func (s *smallfile) storageProbe(rec *recorder) error {
	data := make([]byte, smallfileSize)
	for i, cl := range s.clients {
		for k := 0; k < smallfileKeep; k++ {
			fill(data, payloadKey(s.seed, 2, int64(i), int64(k)))
			if err := createFile(cl, fmt.Sprintf("/sf%d/keep%03d", i, k), data, s.attrs); err != nil {
				return fmt.Errorf("storage probe: %w", err)
			}
		}
	}
	s.e.quiesce()
	user := float64(smallfileSize * smallfileKeep * len(s.clients))
	rec.stored = float64(s.e.storedBytes()) / user
	return nil
}
