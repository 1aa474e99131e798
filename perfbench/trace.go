package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The traced run measures every layer from outside the program: it wraps
// the network the benchmark's clients and proxies join, samples the
// modeled resources (disks, NICs, namespace CPU), and reads the counters
// the program already exports through its obs registry. None of this is
// installed in an untraced run.

// span is one timed interval in modeled time. Op spans are roots; RPC spans
// issued while a closed-loop client has that op in flight are its children
// and share its trace ID.
type span struct {
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Node   string        `json:"node"`
	Name   string        `json:"name"`
	To     string        `json:"to,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Err    bool          `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory while active and counts multicasts.
type tracer struct {
	clock  *simtime.Clock
	active atomic.Bool
	ids    atomic.Uint64
	cur    sync.Map // node name -> *opSpan in flight

	mu    sync.Mutex
	spans []span
	casts map[string]int
}

type opSpan struct {
	id    uint64
	node  string
	name  string
	start time.Duration
}

func newTracer(clock *simtime.Clock) *tracer {
	return &tracer{clock: clock, casts: make(map[string]int)}
}

// begin opens a root span for one client op on node. It returns nil (and
// end ignores it) when t is nil or outside a measured window.
func (t *tracer) begin(node, name string) *opSpan {
	if t == nil || !t.active.Load() {
		return nil
	}
	op := &opSpan{id: t.ids.Add(1), node: node, name: name, start: t.clock.Now()}
	t.cur.Store(node, op)
	return op
}

func (t *tracer) end(op *opSpan, err error) {
	if op == nil {
		return
	}
	t.cur.CompareAndDelete(op.node, op)
	t.add(span{Trace: op.id, ID: op.id, Node: op.node, Name: op.name,
		Start: op.start, End: t.clock.Now(), Err: err != nil})
}

func (t *tracer) rpc(node string, to wire.NodeID, req any, start, end time.Duration, err error) {
	if !t.active.Load() {
		return
	}
	s := span{ID: t.ids.Add(1), Node: node, Name: "rpc:" + obs.MsgTypeName(req), To: string(to),
		Start: start, End: end, Err: err != nil}
	s.Trace = s.ID
	if v, ok := t.cur.Load(node); ok {
		op := v.(*opSpan)
		s.Trace, s.Parent = op.id, op.id
	}
	t.add(s)
}

func (t *tracer) cast(msg any) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	t.casts[obs.MsgTypeName(msg)]++
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeSpans writes every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedNet wraps a transport.Network so every endpoint joined through it
// reports its calls and multicasts to the tracer.
type tracedNet struct {
	inner transport.Network
	tr    *tracer
}

func (n *tracedNet) Join(id wire.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.inner.Join(id, h)
	if err != nil {
		return nil, err
	}
	return &tracedEP{Endpoint: ep, tr: n.tr, node: string(id)}, nil
}

func (n *tracedNet) JoinAt(id, host wire.NodeID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.inner.JoinAt(id, host, h)
	if err != nil {
		return nil, err
	}
	return &tracedEP{Endpoint: ep, tr: n.tr, node: string(id)}, nil
}

type tracedEP struct {
	transport.Endpoint
	tr   *tracer
	node string
}

func (e *tracedEP) Call(ctx context.Context, to wire.NodeID, req any) (any, error) {
	start := e.tr.clock.Now()
	resp, err := e.Endpoint.Call(ctx, to, req)
	e.tr.rpc(e.node, to, req, start, e.tr.clock.Now(), err)
	return resp, err
}

func (e *tracedEP) Multicast(msg any) {
	e.tr.cast(msg)
	e.Endpoint.Multicast(msg)
}

// resGroup is a set of modeled resources reported together.
type resGroup struct {
	res        []*simtime.Resource
	busy0      []time.Duration
	req0       []int64
	busy       []time.Duration // accumulated over measured windows
	reqs       int64
	backlogSum time.Duration // sum over samples of the group's largest backlog
	samples    int
}

func (g *resGroup) begin() {
	g.busy0 = g.busy0[:0]
	g.req0 = g.req0[:0]
	for _, r := range g.res {
		b, n := r.BusyTime()
		g.busy0 = append(g.busy0, b)
		g.req0 = append(g.req0, n)
	}
}

func (g *resGroup) finish() {
	if g.busy == nil {
		g.busy = make([]time.Duration, len(g.res))
	}
	for i, r := range g.res {
		b, n := r.BusyTime()
		g.busy[i] += b - g.busy0[i]
		g.reqs += n - g.req0[i]
	}
}

func (g *resGroup) sample() {
	var worst time.Duration
	for _, r := range g.res {
		if b := r.Backlog(); b > worst {
			worst = b
		}
	}
	g.backlogSum += worst
	g.samples++
}

// utilization returns the busiest resource's and the mean utilization over
// modeled time.
func (g *resGroup) utilization(modeled time.Duration) (max, mean float64) {
	if modeled <= 0 || len(g.busy) == 0 {
		return 0, 0
	}
	for _, b := range g.busy {
		u := float64(b) / float64(modeled)
		mean += u
		if u > max {
			max = u
		}
	}
	return max, mean / float64(len(g.busy))
}

func (g *resGroup) backlogMs() float64 {
	if g.samples == 0 {
		return 0
	}
	return ms(g.backlogSum / time.Duration(g.samples))
}

// layers accumulates the per-layer counters of a traced run over its
// measured windows.
type layers struct {
	e                *env
	disks, nics, nsc *resGroup
	stop             chan struct{}
	done             chan struct{}

	obs0     map[string]float64
	obsDelta map[string]float64
	cpu0     float64
	mallocs0 uint64
	cpu      float64
	mallocs  uint64
	pending  int
}

func newLayers(e *env) *layers {
	l := &layers{e: e, disks: &resGroup{}, nics: &resGroup{}, nsc: &resGroup{},
		obsDelta: make(map[string]float64)}
	nodes := []wire.NodeID{"ns"}
	for _, p := range e.c.Providers() {
		l.disks.res = append(l.disks.res, p.Store().Disk().Resource())
		nodes = append(nodes, p.ID())
	}
	for _, cl := range e.clients {
		nodes = append(nodes, wire.NodeID(cl.Name()))
	}
	for _, px := range e.proxies {
		nodes = append(nodes, px.ID())
	}
	for i := range e.edges {
		nodes = append(nodes, wire.NodeID(fmt.Sprintf("edge%d", i)))
	}
	for _, id := range nodes {
		l.nics.res = append(l.nics.res, e.c.Fabric.NICResources(id)...)
	}
	l.nsc.res = []*simtime.Resource{e.c.NS.CPU()}
	return l
}

// begin snapshots every counter and starts sampling backlogs.
func (l *layers) begin() {
	for _, g := range []*resGroup{l.disks, l.nics, l.nsc} {
		g.begin()
	}
	l.obs0 = l.obsSums()
	l.cpu0, _ = processCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.mallocs0 = ms.Mallocs
	l.stop, l.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(l.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				for _, g := range []*resGroup{l.disks, l.nics, l.nsc} {
					g.sample()
				}
			}
		}
	}()
}

// finish stops sampling and folds this window's deltas in.
func (l *layers) finish() {
	close(l.stop)
	<-l.done
	for _, g := range []*resGroup{l.disks, l.nics, l.nsc} {
		g.finish()
	}
	for k, v := range l.obsSums() {
		l.obsDelta[k] += v - l.obs0[k]
	}
	cpu, _ := processCPU()
	l.cpu += cpu - l.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l.mallocs += ms.Mallocs - l.mallocs0
	l.pending = l.e.c.PendingRepairs()
}

// obsSums reads the program's own counters that the per-layer table uses.
func (l *layers) obsSums() map[string]float64 {
	providers := map[string]bool{}
	for id := range l.e.c.Providers() {
		providers[string(id)] = true
	}
	out := map[string]float64{}
	for _, m := range l.e.o.Reg().Snapshot() {
		switch m.Name {
		case "sorrento_provider_pulls_total":
			out["pulls"] += m.Value
		case "sorrento_proxy_reads_coalesced_total":
			out["coalesced"] += m.Value
		case "sorrento_rpc_bytes_total":
			out["wire_bytes"] += m.Value
			if providers[m.Labels["node"]] && m.Labels["type"] != "Heartbeat" {
				out["p2p_bytes"] += m.Value
			}
		}
	}
	return out
}

// rpcAgg sums RPC spans of one message type.
type rpcAgg struct {
	n, errs int
	total   time.Duration
}

func (a rpcAgg) meanMs() float64 {
	if a.n == 0 {
		return 0
	}
	return ms(a.total) / float64(a.n)
}

// opAgg sums the closed-loop ops of one kind and their child RPC spans.
type opAgg struct {
	n       int
	total   time.Duration
	covered time.Duration // by the union of child RPC spans
	self    time.Duration // total minus covered
	nsRTTs  int
	nsTime  time.Duration
	byType  map[string]*rpcAgg
}

// breakdown groups the traced spans: closed-loop ops with their children,
// and every RPC span by the calling node's role and message type.
type breakdown struct {
	ops    map[string]*opAgg
	byType map[string]map[string]*rpcAgg // role -> type -> agg
	rpcs   int
	errs   int
}

func (t *tracer) breakdown(roleOf func(node string) string) *breakdown {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	b := &breakdown{ops: map[string]*opAgg{}, byType: map[string]map[string]*rpcAgg{}}
	children := map[uint64][]span{}
	var roots []span
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "rpc:") {
			roots = append(roots, s)
			continue
		}
		b.rpcs++
		if s.Err {
			b.errs++
		}
		role := roleOf(s.Node)
		if b.byType[role] == nil {
			b.byType[role] = map[string]*rpcAgg{}
		}
		typ := strings.TrimPrefix(s.Name, "rpc:")
		a := b.byType[role][typ]
		if a == nil {
			a = &rpcAgg{}
			b.byType[role][typ] = a
		}
		a.n++
		a.total += s.dur()
		if s.Err {
			a.errs++
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, r := range roots {
		o := b.ops[r.Name]
		if o == nil {
			o = &opAgg{byType: map[string]*rpcAgg{}}
			b.ops[r.Name] = o
		}
		kids := children[r.ID]
		cov := covered(r, kids)
		o.n++
		o.total += r.dur()
		o.covered += cov
		o.self += r.dur() - cov
		for _, k := range kids {
			typ := strings.TrimPrefix(k.Name, "rpc:")
			a := o.byType[typ]
			if a == nil {
				a = &rpcAgg{}
				o.byType[typ] = a
			}
			a.n++
			a.total += k.dur()
			if k.To == "ns" {
				o.nsRTTs++
				o.nsTime += k.dur()
			}
		}
	}
	return b
}

// covered returns how much of root's interval its children's intervals
// cover (their union, clipped to the root).
func covered(root span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < root.Start {
			s = root.Start
		}
		if e > root.End {
			e = root.End
		}
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			if x[1] > curE {
				curE = x[1]
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// report prints the per-op critical-path breakdown: for each closed-loop
// op kind, its mean modeled latency split into time covered by RPC spans
// and the client's self time, plus each message type's mean count and
// summed duration per op (parallel RPCs can sum past the covered time).
func (b *breakdown) report(w io.Writer) {
	kinds := make([]string, 0, len(b.ops))
	for k := range b.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		o := b.ops[k]
		n := float64(o.n)
		fmt.Fprintf(w, "op %-7s n=%-6d mean %.3f ms = rpc-covered %.3f ms + self %.3f ms\n",
			k, o.n, ms(o.total)/n, ms(o.covered)/n, ms(o.self)/n)
		types := make([]string, 0, len(o.byType))
		for t := range o.byType {
			types = append(types, t)
		}
		sort.Strings(types)
		for _, t := range types {
			a := o.byType[t]
			fmt.Fprintf(w, "    %-18s %6.2f calls/op %9.3f ms/op\n", t, float64(a.n)/n, ms(a.total)/n)
		}
	}
	roles := make([]string, 0, len(b.byType))
	for r := range b.byType {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	for _, r := range roles {
		types := make([]string, 0, len(b.byType[r]))
		for t := range b.byType[r] {
			types = append(types, t)
		}
		sort.Strings(types)
		for _, t := range types {
			a := b.byType[r][t]
			fmt.Fprintf(w, "rpc %-6s %-18s n=%-7d mean %.3f ms errors %d\n", r, t, a.n, a.meanMs(), a.errs)
		}
	}
}

func (b *breakdown) agg(role, typ string) rpcAgg {
	if a := b.byType[role][typ]; a != nil {
		return *a
	}
	return rpcAgg{}
}

// sum adds the aggregates of several message types of one role.
func (b *breakdown) sum(role string, types ...string) rpcAgg {
	var out rpcAgg
	for _, t := range types {
		a := b.agg(role, t)
		out.n += a.n
		out.errs += a.errs
		out.total += a.total
	}
	return out
}

// Message types on the proxy's read path and on the namespace write path
// (gateway attribution, where RPCs carry no per-request parent).
var (
	proxyReadTypes = []string{"NSLookup", "SegFetch", "SegRead", "LocQuery", "SegStat"}
	nsWriteTypes   = []string{"NSCreate", "NSCommitBegin", "NSCommitComplete", "NSCommitAbort"}
)

// perLayer computes the per-layer metrics of a traced run.
func perLayer(e *env, l *layers, rec *recorder, modeled time.Duration) map[string]float64 {
	roleOf := func(node string) string {
		switch {
		case strings.HasPrefix(node, "edge"):
			return "edge"
		case strings.HasPrefix(node, "gw"):
			return "proxy"
		default:
			return "client"
		}
	}
	b := e.tr.breakdown(roleOf)
	b.report(os.Stderr)

	ops := rec.totalAttempts() - rec.teardown
	writes := float64(rec.attempts["write"])
	per := func(n float64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	m := map[string]float64{}

	// core and namespace: closed-loop ops carry their RPCs as children; the
	// gateway attributes proxy RPCs by message type instead.
	rpcRole := "client"
	if len(e.proxies) > 0 {
		rpcRole = "proxy"
	}
	if o := b.ops["read"]; o != nil {
		m["core.self_ms_per_read"] = ms(o.self) / float64(o.n)
		m["namespace.rtts_per_read"] = float64(o.nsRTTs) / float64(o.n)
	}
	if o := b.ops["write"]; o != nil {
		m["core.self_ms_per_write"] = ms(o.self) / float64(o.n)
		m["namespace.rtts_per_write"] = float64(o.nsRTTs) / float64(o.n)
		m["namespace.ms_per_write"] = ms(o.nsTime) / float64(o.n)
	}
	if o := b.ops["unlink"]; o != nil {
		m["namespace.rtts_per_unlink"] = float64(o.nsRTTs) / float64(o.n)
	}
	m["core.rpc_error_frac"] = per(float64(b.errs), float64(b.rpcs))
	m["core.cpu_us_per_op"] = per(l.cpu*1e6, float64(ops))
	m["core.allocs_per_op"] = per(float64(l.mallocs), float64(ops))
	m["namespace.cpu_util"], _ = l.nsc.utilization(modeled)
	m["namespace.backlog_ms"] = l.nsc.backlogMs()

	if rpcRole == "proxy" {
		pread := b.agg("edge", "PRead")
		reads := float64(pread.n)
		m["namespace.rtts_per_read"] = per(float64(b.agg("proxy", "NSLookup").n), reads)
		nsw := b.sum("proxy", nsWriteTypes...)
		m["namespace.rtts_per_write"] = per(float64(nsw.n), writes)
		m["namespace.ms_per_write"] = per(ms(nsw.total), writes)
		readPath := b.sum("proxy", proxyReadTypes...)
		m["proxy.self_ms_per_read"] = pread.meanMs() - per(ms(readPath.total), reads)
		m["proxy.coalesced_frac"] = per(l.obsDelta["coalesced"], reads)
		m["proxy.lookups_per_read"] = per(float64(b.agg("proxy", "NSLookup").n), reads)
	}

	lq := b.agg(rpcRole, "LocQuery")
	m["locate.queries_per_op"] = per(float64(lq.n), float64(ops))
	m["locate.ms_per_op"] = per(ms(lq.total), float64(ops))
	e.tr.mu.Lock()
	m["locate.probes_per_op"] = per(float64(e.tr.casts["LocProbe"]), float64(ops))
	e.tr.mu.Unlock()

	m["provider.prepare_ms"] = b.agg(rpcRole, "Prepare2PC").meanMs()
	m["provider.commit_ms"] = b.agg(rpcRole, "Commit2PC").meanMs()
	m["provider.2pc_rounds_per_write"] = per(float64(b.agg(rpcRole, "Prepare2PC").n), writes)
	m["provider.shadow_ms"] = b.agg(rpcRole, "SegShadow").meanMs()
	m["provider.segread_ms"] = b.agg(rpcRole, "SegRead").meanMs()
	m["provider.fetch_ms"] = b.agg(rpcRole, "SegFetch").meanMs()

	m["replication.bytes_per_user_byte"] = per(l.obsDelta["p2p_bytes"], float64(rec.written))
	m["replication.pulls_per_write"] = per(l.obsDelta["pulls"], writes)
	m["replication.pending_repairs_end"] = float64(l.pending)

	m["simnet.nic_util_max"], m["simnet.nic_util_mean"] = l.nics.utilization(modeled)
	m["simnet.nic_backlog_ms"] = l.nics.backlogMs()
	m["simnet.wire_bytes_per_user_byte"] = per(l.obsDelta["wire_bytes"], float64(rec.bytes))

	m["disk.util_max"], m["disk.util_mean"] = l.disks.utilization(modeled)
	m["disk.backlog_ms"] = l.disks.backlogMs()
	m["disk.ios_per_op"] = per(float64(l.disks.reqs), float64(ops))

	m["simtime.gen_late_ms"] = rec.genLateMs()
	return m
}
