package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/proxy"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// This file covers the gateway tier end to end: the seeded chaos suite
// rerun with every byte of traffic routed through stateless proxies, an
// online drain/retire of a provider while proxied writes are in flight,
// and a proxy crash/replace showing the tier keeps no durable state.

const (
	proxyChaosProxies = 2
	proxyChaosRounds  = 8
)

// tunedProxy configures a proxy's embedded client like the chaos-tuned
// direct clients: shorter call timeout, bounded exponential retry.
func tunedProxy(cfg *proxy.Config) {
	cfg.Client.CallTimeout = 5 * time.Second
	cfg.Client.Retry = core.RetryPolicy{MaxAttempts: 4, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second}
}

// tuneThin bounds thin-client attempts so one write+commit round converges
// well inside chaosOpDeadline even when every attempt rides out the
// proxy-side retry budget first.
func tuneThin(tc *proxy.ThinClient) {
	tc.Timeout = 30 * time.Second
	tc.Attempts = 3
	tc.Backoff = 200 * time.Millisecond
}

func TestProxyChaosSeeded(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seeds = []int64{v}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("proxy chaos seed %d (rerun with CHAOS_SEED=%d)", seed, seed)
			runProxyChaos(t, seed)
		})
	}
}

// runProxyChaos is the chaos suite with the gateway tier in the data path:
// thin clients that know nothing about membership or placement talk to two
// proxies, providers get the same seed-pinned fault schedule, and the same
// durability contract must hold — every commit acked through a proxy reads
// back intact after the faults heal.
func runProxyChaos(t *testing.T, seed int64) {
	c, err := New(Options{
		Providers: chaosProviders,
		Scale:     0.001,
		Sizing:    layout.Sizing{Unit: 4096, Max: 512, Base: 8, Period: 8},
		Net:       simnet.Config{CallTimeout: 2 * time.Second, FaultSeed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.AwaitStable(chaosProviders, 2*time.Minute); err != nil {
		t.Fatal(err)
	}

	proxyIDs := make([]wire.NodeID, proxyChaosProxies)
	for i := range proxyIDs {
		px, err := c.NewProxy(fmt.Sprintf("gw%d", i), tunedProxy)
		if err != nil {
			t.Fatal(err)
		}
		if err := px.Client().WaitForProviders(chaosProviders, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		proxyIDs[i] = px.ID()
	}

	writers := make([]*proxy.ThinClient, chaosWriters)
	for i := range writers {
		tc, err := proxy.Dial(c.Clock, c.Fabric, fmt.Sprintf("tw%d", i), proxyIDs...)
		if err != nil {
			t.Fatal(err)
		}
		tuneThin(tc)
		t.Cleanup(tc.Close)
		if err := tc.Mkdir(fmt.Sprintf("/w%d", i)); err != nil {
			t.Fatal(err)
		}
		writers[i] = tc
	}
	reader, err := proxy.Dial(c.Clock, c.Fabric, "tr0", proxyIDs...)
	if err != nil {
		t.Fatal(err)
	}
	tuneThin(reader)
	t.Cleanup(reader.Close)

	var (
		ackMu sync.Mutex
		acked []chaosAck
	)

	var wg sync.WaitGroup
	for i := 0; i < chaosWriters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := writers[i]
			for r := 0; r < proxyChaosRounds; r++ {
				start := c.Clock.Now()
				path := fmt.Sprintf("/w%d/f%02d", i, r)
				sess := fmt.Sprintf("w%d-r%d", i, r)
				payload := chaosPayload(seed, i, r)
				if err := tc.Write(sess, path, 0, payload, true, 2); err != nil {
					tc.Abort(sess, path)
					continue // faults may win; only acked data is promised
				}
				if _, _, err := tc.Commit(sess, path); err != nil {
					// A lost commit reply surfaces as an error (e.g. the
					// retry landed on a proxy without the session): NOT
					// acked, so the contract makes no promise about it.
					continue
				}
				if took := c.Clock.Now() - start; took > chaosOpDeadline {
					t.Errorf("writer %d round %d wedged for %v (deadline %v)", i, r, took, chaosOpDeadline)
				}
				ackMu.Lock()
				acked = append(acked, chaosAck{path: path, sum: sha256.Sum256(payload)})
				ackMu.Unlock()
			}
		}()
	}

	stopRead := make(chan struct{})
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		rng := rand.New(rand.NewSource(seed + 7))
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			ackMu.Lock()
			var pick chaosAck
			if len(acked) > 0 {
				pick = acked[rng.Intn(len(acked))]
			}
			ackMu.Unlock()
			if pick.path == "" {
				c.Clock.Sleep(500 * time.Millisecond)
				continue
			}
			data, err := reader.GetFile(pick.path)
			if err != nil {
				continue // transient failures are allowed mid-fault
			}
			if len(data) == chaosPayloadSize && sha256.Sum256(data) != pick.sum {
				t.Errorf("mid-chaos proxied read of %s returned wrong content", pick.path)
			}
		}
	}()

	// Same seed-pinned schedule as the direct chaos suite — providers only;
	// the gateways stay up (a proxy crash is its own test below).
	victims := make([]wire.NodeID, chaosProviders)
	for i := range victims {
		victims[i] = ProviderID(i)
	}
	sched := RandomFaultSchedule(seed, victims, chaosHorizon, chaosEvents)
	for _, e := range sched.Events {
		t.Logf("fault: %v", e)
	}
	if err := c.RunFaultSchedule(t.Context(), sched); err != nil {
		t.Fatalf("fault schedule: %v", err)
	}

	wg.Wait()
	close(stopRead)
	readWG.Wait()

	c.Fabric.HealAllFaults()
	if err := c.AwaitStable(chaosProviders, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitQuiesce(10 * time.Minute); err != nil {
		for id, p := range c.Providers() {
			for _, act := range p.RepairNeeds() {
				t.Logf("%s stuck: seg=%v latest=%d owners=%v stale=%v deficit=%d source=%v",
					id, act.Seg, act.Latest, act.CurrentOwners, act.Stale, act.Deficit, act.Source)
			}
		}
		t.Fatalf("replication not restored after heal: %v", err)
	}

	// The durability contract, through the gateway: every commit a proxy
	// acknowledged reads back intact via the thin protocol.
	ackMu.Lock()
	final := append([]chaosAck(nil), acked...)
	ackMu.Unlock()
	if len(final) == 0 {
		t.Fatal("no commit was ever acknowledged; chaos starved the proxied workload")
	}
	for _, a := range final {
		data, err := reader.GetFile(a.path)
		if err != nil {
			t.Errorf("acked file %s unreadable through proxy after heal: %v", a.path, err)
			continue
		}
		if len(data) != chaosPayloadSize || sha256.Sum256(data) != a.sum {
			t.Errorf("acked file %s content lost (got %d bytes)", a.path, len(data))
		}
	}
	for _, id := range proxyIDs {
		st, err := c.ProxyStatus(id)
		if err != nil {
			t.Errorf("proxy status %s: %v", id, err)
			continue
		}
		t.Logf("proxy %s: %d requests, %d errors, %d live sessions, %d cached reads",
			id, st.Requests, st.Errors, st.Sessions, st.Reads)
	}
	t.Logf("proxy chaos seed %d: %d/%d rounds acked and verified", seed, len(final), chaosWriters*proxyChaosRounds)
}

// TestProxyDrainRetireOnline drains a provider while proxied writes are in
// flight, waits for its store to evacuate, retires it, and proves zero
// acked-commit loss with replication fully healed on the survivors.
func TestProxyDrainRetireOnline(t *testing.T) {
	const providers = 6
	c, err := New(Options{
		Providers: providers,
		Scale:     0.001,
		Sizing:    layout.Sizing{Unit: 4096, Max: 512, Base: 8, Period: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.AwaitStable(providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	px, err := c.NewProxy("gw0", tunedProxy)
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Client().WaitForProviders(providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	tc, err := proxy.Dial(c.Clock, c.Fabric, "tc0", px.ID())
	if err != nil {
		t.Fatal(err)
	}
	tuneThin(tc)
	t.Cleanup(tc.Close)
	if err := tc.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}

	victim := ProviderID(providers - 1)
	const rounds = 16
	payloadFor := func(r int) []byte {
		rng := rand.New(rand.NewSource(41 + int64(r)))
		b := make([]byte, 32<<10)
		rng.Read(b)
		return b
	}

	type ack struct {
		path string
		sum  [sha256.Size]byte
	}
	var acked []ack
	for r := 0; r < rounds; r++ {
		if r == rounds/3 {
			// Kick off the drain mid-stream: from here on the victim's
			// heartbeats carry Draining and its drain worker evacuates
			// while commits keep flowing through the proxy.
			if err := c.DrainProvider(victim); err != nil {
				t.Fatalf("drain %s: %v", victim, err)
			}
			st, err := c.AdminStatus(victim)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Draining {
				t.Fatalf("victim %s not draining after AdminDrain", victim)
			}
		}
		path := fmt.Sprintf("/d/f%02d", r)
		payload := payloadFor(r)
		if _, err := tc.PutFile(path, payload, 2); err != nil {
			t.Fatalf("proxied put %s during drain: %v", path, err)
		}
		acked = append(acked, ack{path: path, sum: sha256.Sum256(payload)})
	}

	if err := c.AwaitDrained(victim, 10*time.Minute); err != nil {
		st, serr := c.AdminStatus(victim)
		t.Fatalf("%v (status %+v, err %v)", err, st, serr)
	}
	st, err := c.AdminStatus(victim)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 0 || st.Shadows != 0 {
		t.Fatalf("drained victim still holds %d segments, %d shadows", st.Segments, st.Shadows)
	}
	if got := c.Provider(victim).Store().Len(); got != 0 {
		t.Fatalf("victim store reports %d segments after drain", got)
	}

	if err := c.RetireProvider(victim); err != nil {
		t.Fatalf("retire %s: %v", victim, err)
	}
	if err := c.AwaitStable(providers-1, 5*time.Minute); err != nil {
		t.Fatalf("membership did not shrink to %d after retire: %v", providers-1, err)
	}
	if err := c.AwaitQuiesce(10 * time.Minute); err != nil {
		t.Fatalf("replication not healed on survivors: %v", err)
	}

	// Zero acked-commit loss, read back through the gateway.
	for _, a := range acked {
		data, err := tc.GetFile(a.path)
		if err != nil {
			t.Errorf("acked file %s unreadable after retire: %v", a.path, err)
			continue
		}
		if sha256.Sum256(data) != a.sum {
			t.Errorf("acked file %s content lost after retire", a.path)
		}
	}
	t.Logf("drained and retired %s online: %d acked commits intact on %d survivors",
		victim, len(acked), providers-1)
}

// TestProxyRestartLosesNoAckedCommits kills a proxy mid-use and replaces it
// under the same name: every acked commit survives (durable state lives on
// providers and the namespace, never on the gateway), uncommitted sessions
// die with the proxy, and thin clients recover by reconnecting.
func TestProxyRestartLosesNoAckedCommits(t *testing.T) {
	const providers = 4
	c, err := New(Options{
		Providers: providers,
		Scale:     0.0005,
		Sizing:    layout.Sizing{Unit: 4096, Max: 512, Base: 8, Period: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.AwaitStable(providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	px, err := c.NewProxy("gw0", tunedProxy)
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Client().WaitForProviders(providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	tc, err := proxy.Dial(c.Clock, c.Fabric, "tc0", px.ID())
	if err != nil {
		t.Fatal(err)
	}
	tuneThin(tc)
	t.Cleanup(tc.Close)
	if err := tc.Mkdir("/k"); err != nil {
		t.Fatal(err)
	}

	type ack struct {
		path string
		sum  [sha256.Size]byte
	}
	var acked []ack
	for r := 0; r < 6; r++ {
		rng := rand.New(rand.NewSource(91 + int64(r)))
		payload := make([]byte, 16<<10)
		rng.Read(payload)
		path := fmt.Sprintf("/k/f%d", r)
		if _, err := tc.PutFile(path, payload, 2); err != nil {
			t.Fatalf("put %s: %v", path, err)
		}
		acked = append(acked, ack{path: path, sum: sha256.Sum256(payload)})
	}

	// Leave an in-flight (never committed) session on the proxy, then
	// crash it. The session is soft state and must die with the process.
	if err := tc.Write("pending", "/k/pending", 0, bytes.Repeat([]byte{7}, 4096), true, 2); err != nil {
		t.Fatalf("open pending session: %v", err)
	}
	c.KillProxy(px)

	// Replace it under the same node ID — the LB story: clients reconnect
	// and land on a fresh instance with empty soft state.
	px2, err := c.NewProxy("gw0", tunedProxy)
	if err != nil {
		t.Fatalf("restart proxy: %v", err)
	}
	if err := px2.Client().WaitForProviders(providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	st, err := c.ProxyStatus(px2.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 0 {
		t.Fatalf("restarted proxy reports %d sessions; soft state should be empty", st.Sessions)
	}

	// The uncommitted session was never acked: committing it now must fail
	// (the replacement has no such session), not silently succeed.
	if _, _, err := tc.Commit("pending", "/k/pending"); err == nil {
		t.Fatal("commit of a session lost in the proxy crash unexpectedly succeeded")
	} else if !strings.Contains(err.Error(), "session") {
		t.Logf("commit after crash failed as expected: %v", err)
	}

	// Every acked commit is still there, and the client can write again
	// under a fresh session without any recovery protocol.
	for _, a := range acked {
		data, err := tc.GetFile(a.path)
		if err != nil {
			t.Fatalf("acked file %s unreadable after proxy restart: %v", a.path, err)
		}
		if sha256.Sum256(data) != a.sum {
			t.Fatalf("acked file %s content lost after proxy restart", a.path)
		}
	}
	payload := bytes.Repeat([]byte{9}, 8192)
	if _, err := tc.PutFile("/k/after", payload, 2); err != nil {
		t.Fatalf("write through restarted proxy: %v", err)
	}
	data, err := tc.GetFile("/k/after")
	if err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("read-after-write through restarted proxy failed: %v", err)
	}
}

// TestProxyBasicOps exercises the thin protocol's everyday surface through
// a live cluster: put/get/stat/remove, EOF signalling, pinned-version
// reads, read-handle caching, and TTL expiry of idle write sessions.
func TestProxyBasicOps(t *testing.T) {
	const providers = 4
	c, err := New(Options{
		Providers: providers,
		Scale:     0.0005,
		Sizing:    layout.Sizing{Unit: 4096, Max: 512, Base: 8, Period: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.AwaitStable(providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	px, err := c.NewProxy("gw0", func(cfg *proxy.Config) {
		tunedProxy(cfg)
		cfg.SessionTTL = 10 * time.Second
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := px.Client().WaitForProviders(providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	tc, err := proxy.Dial(c.Clock, c.Fabric, "tc0", px.ID())
	if err != nil {
		t.Fatal(err)
	}
	tuneThin(tc)
	t.Cleanup(tc.Close)

	if err := tc.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("sorrento"), 1024) // 8 KiB
	ver, err := tc.PutFile("/b/a", payload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ver == 0 {
		t.Fatal("commit returned version 0")
	}
	ent, err := tc.Stat("/b/a")
	if err != nil {
		t.Fatal(err)
	}
	if ent.Size != int64(len(payload)) || ent.Version != ver {
		t.Fatalf("stat = size %d version %d, want %d/%d", ent.Size, ent.Version, len(payload), ver)
	}

	// Plain read and a second read that must hit the cached handle.
	got, err := tc.GetFile("/b/a")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("get /b/a: %v", err)
	}
	if _, _, _, err := tc.Read("/b/a", 0, 512); err != nil {
		t.Fatal(err)
	}
	st, err := c.ProxyStatus(px.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads == 0 {
		t.Fatal("no cached read handle after back-to-back reads")
	}

	// Read at EOF signals EOF with no data; pinned-version read works.
	if data, _, eof, err := tc.Read("/b/a", int64(len(payload)), 64); err != nil || !eof || len(data) != 0 {
		t.Fatalf("read at EOF = %d bytes eof=%v err=%v", len(data), eof, err)
	}
	resp, err := tc.ReadVersion("/b/a", 0, 64, ver)
	if err != nil || len(resp) != 64 {
		t.Fatalf("pinned-version read: %d bytes, %v", len(resp), err)
	}

	// An idle uncommitted session is swept after SessionTTL.
	if err := tc.Write("idle", "/b/idle", 0, payload[:4096], true, 2); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.ProxyStatus(px.ID()); st.Sessions != 1 {
		t.Fatalf("expected 1 live session, got %d", st.Sessions)
	}
	deadline := c.Clock.Now() + 5*time.Minute
	for {
		st, err = c.ProxyStatus(px.ID())
		if err == nil && st.Sessions == 0 {
			break
		}
		if c.Clock.Now() > deadline {
			t.Fatalf("idle session not swept after TTL (still %d)", st.Sessions)
		}
		c.Clock.Sleep(5 * time.Second)
	}
	if _, _, err := tc.Commit("idle", "/b/idle"); err == nil {
		t.Fatal("commit of an expired session unexpectedly succeeded")
	}

	// Remove unlinks; stat must now fail.
	if err := tc.Remove("/b/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Stat("/b/a"); err == nil {
		t.Fatal("stat after remove unexpectedly succeeded")
	}
}

// TestThinClientConcurrentPutFiles runs concurrent PutFiles on one thin
// client bound to two proxies. Each PutFile's writes and commit must reach
// the proxy that holds its session, so every put commits and reads back.
func TestThinClientConcurrentPutFiles(t *testing.T) {
	const (
		providers = 4
		puts      = 16
	)
	c, err := New(Options{
		Providers: providers,
		Scale:     0.0005,
		Sizing:    layout.Sizing{Unit: 4096, Max: 512, Base: 8, Period: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := c.AwaitStable(providers, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	var proxyIDs []wire.NodeID
	for i := 0; i < 2; i++ {
		px, err := c.NewProxy(fmt.Sprintf("gw%d", i), tunedProxy)
		if err != nil {
			t.Fatal(err)
		}
		if err := px.Client().WaitForProviders(providers, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		proxyIDs = append(proxyIDs, px.ID())
	}
	tc, err := proxy.Dial(c.Clock, c.Fabric, "tc0", proxyIDs...)
	if err != nil {
		t.Fatal(err)
	}
	tuneThin(tc)
	t.Cleanup(tc.Close)
	if err := tc.Mkdir("/p"); err != nil {
		t.Fatal(err)
	}

	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 4096+i) }
	errs := make([]error, puts)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < puts; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, errs[i] = tc.PutFile(fmt.Sprintf("/p/f%02d", i), payload(i), 2)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("put /p/f%02d: %v", i, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for i := 0; i < puts; i++ {
		path := fmt.Sprintf("/p/f%02d", i)
		got, err := tc.GetFile(path)
		if err != nil || !bytes.Equal(got, payload(i)) {
			t.Fatalf("read back %s: %d bytes, %v", path, len(got), err)
		}
	}
}
