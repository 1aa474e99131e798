package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// env is one stood-up deployment: an in-process Sorrento cluster built by
// bench.NewSorrento, plus the clients, proxies and thin-client edges the
// workload attaches. They all join net, which is the fabric itself in an
// untraced run and the tracing wrapper around it in a traced run; the
// providers and the namespace server always talk over the bare fabric.
type env struct {
	sorr   *bench.SorrentoEnv
	c      *cluster.Cluster
	clock  *simtime.Clock
	scale  bench.Scale
	sizing layout.Sizing
	net    transport.Network
	tr     *tracer  // nil when untraced
	o      *obs.Obs // nil when untraced

	clients []*core.Client
	proxies []*proxy.Proxy
	edges   []*proxy.ThinClient
}

// newEnv builds sorrento-(n, r) under scale. A traced env instruments the
// deployment with an obs registry (no program spans) and routes the
// benchmark's own nodes through a tracing network wrapper.
func newEnv(scale bench.Scale, opts bench.SorrentoOptions, traced bool) (*env, error) {
	e := &env{scale: scale}
	if traced {
		e.o = &obs.Obs{Registry: obs.NewRegistry()}
		opts.Obs = e.o
	}
	sorr, err := bench.NewSorrento(scale, opts)
	if err != nil {
		return nil, fmt.Errorf("stand up cluster: %w", err)
	}
	e.sorr, e.c, e.clock = sorr, sorr.Cluster, sorr.Clock()
	e.sizing = opts.Sizing
	if e.sizing.Unit == 0 {
		e.sizing = scale.Sizing()
	}
	e.net = e.c.Fabric
	if traced {
		e.tr = newTracer(e.clock)
		e.net = &tracedNet{inner: e.c.Fabric, tr: e.tr}
	}
	return e, nil
}

// clientConfig mirrors the configuration cluster.NewClientCfg and
// cluster.NewProxy give their clients, so a benchmark client behaves like
// any harness client whichever network it joins.
func (e *env) clientConfig(seed int64) core.Config {
	cfg := core.Config{
		Namespace: cluster.NamespaceNode,
		Sizing:    e.sizing,
		Seed:      seed,
		Obs:       e.o,
	}
	if floor := e.clock.Modeled(5 * time.Second); floor > 5*time.Minute {
		cfg.ShadowTTL = floor
	}
	return cfg
}

// newClient attaches a full-protocol client on its own machine.
func (e *env) newClient(name string) (*core.Client, error) {
	cl, err := core.NewClient(name, e.clock, e.net, e.clientConfig(int64(len(e.clients)+101)))
	if err != nil {
		return nil, fmt.Errorf("attach client %s: %w", name, err)
	}
	e.clients = append(e.clients, cl)
	return cl, nil
}

// newProxy attaches a gateway proxy.
func (e *env) newProxy(name string) (*proxy.Proxy, error) {
	cfg := proxy.Config{Client: e.clientConfig(int64(len(e.proxies) + 501))}
	px, err := proxy.New(name, e.clock, e.net, cfg)
	if err != nil {
		return nil, fmt.Errorf("attach proxy %s: %w", name, err)
	}
	e.proxies = append(e.proxies, px)
	return px, nil
}

// awaitMembers waits until every attached client and proxy sees every
// provider. They learn membership from heartbeats, so they wait together.
func (e *env) awaitMembers() error {
	cls := append([]*core.Client(nil), e.clients...)
	for _, px := range e.proxies {
		cls = append(cls, px.Client())
	}
	n := len(e.c.Providers())
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			if err := cl.WaitForProviders(n, 2*time.Minute); err != nil {
				errs[i] = fmt.Errorf("%s: %w", cl.Name(), err)
			}
		}(i, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// newEdge dials a thin client bound to proxies (the first is its sticky
// proxy). It makes one attempt per request: the benchmark counts failures
// and adds no retries of its own.
func (e *env) newEdge(name string, proxies ...wire.NodeID) (*proxy.ThinClient, error) {
	tc, err := proxy.Dial(e.clock, e.net, name, proxies...)
	if err != nil {
		return nil, fmt.Errorf("dial edge %s: %w", name, err)
	}
	tc.Attempts = 1
	tc.Timeout = 10 * time.Second
	e.edges = append(e.edges, tc)
	return tc, nil
}

// storedBytes returns the bytes the providers' disks will hold once the
// pending repairs are done: what they hold now plus, for every segment
// short of its replication degree, the missing replicas of its latest
// version. Lazy replication can lag far behind a write-heavy load, so
// counting only what is on disk would make a change that replicates
// sooner look like it stores more.
func (e *env) storedBytes() int64 {
	var n int64
	for _, p := range e.c.Providers() {
		n += p.Store().Disk().Used()
		for _, act := range p.RepairNeeds() {
			n += int64(act.Deficit) * act.Size
		}
	}
	return n
}

// quiesceWall bounds how long quiesce waits, in wall time.
const quiesceWall = 5 * time.Second

// quiesce waits until lazy replication and repair have caught up, for at
// most quiesceWall. Repairs still pending then are reported and the run
// goes on: their count is replication.pending_repairs_end in a traced run.
func (e *env) quiesce() {
	if err := e.c.AwaitQuiesce(e.clock.Modeled(quiesceWall)); err == nil {
		return
	}
	n := 0
	for _, p := range e.c.Providers() {
		for _, act := range p.RepairNeeds() {
			if n++; n <= 3 {
				fmt.Fprintf(os.Stderr, "quiesce: %s still repairing %v: latest v%d, owners %v, stale %v, deficit %d\n",
					p.ID(), act.Seg, act.Latest, act.CurrentOwners, act.Stale, act.Deficit)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "quiesce: %d repairs pending after %v\n", n, quiesceWall)
}

func (e *env) close() {
	for _, tc := range e.edges {
		tc.Close()
	}
	for _, px := range e.proxies {
		px.Close()
	}
	for _, cl := range e.clients {
		cl.Close()
	}
	e.sorr.Close()
}

// createFile creates path holding data and commits it on close.
func createFile(cl *core.Client, path string, data []byte, attrs wire.FileAttrs) error {
	f, err := cl.Create(path, attrs)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Drop()
		return err
	}
	return f.Close()
}

// readAt opens path and reads n bytes at off.
func readAt(cl *core.Client, path string, off int64, n int) ([]byte, error) {
	f, err := cl.Open(path)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, off)
	if err == io.EOF && got == n {
		err = nil
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return buf[:got], err
}

// fill writes the deterministic pseudo-random content named by key into
// buf (splitmix64). Workloads derive every payload from the run's seed
// this way and keep the keys, so each read can be checked byte for byte.
func fill(buf []byte, key uint64) {
	x := key
	for i := 0; i < len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(buf); j++ {
			buf[i+j] = byte(z >> (8 * j))
		}
	}
}

// payloadKey mixes the run seed with a workload-local identity.
func payloadKey(seed int64, parts ...int64) uint64 {
	k := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for _, p := range parts {
		k = (k ^ uint64(p)) * 0x100000001b3
	}
	return k
}
