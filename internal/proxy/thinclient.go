package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ThinClient speaks the thin request protocol to one or more proxies. It
// holds no membership view, no location cache, and no commit machinery —
// just a transport endpoint and the proxy addresses. A transport failure is
// retried with backoff against the next proxy in the list, which is exactly
// what "the client reconnects through the load balancer" means over the
// simulated fabric.
type ThinClient struct {
	clock   *simtime.Clock
	ep      transport.Endpoint
	proxies []wire.NodeID
	rr      atomic.Uint64 // sticky proxy cursor; moves only on failover
	sessSeq atomic.Uint64 // PutFile session numbers

	// Timeout bounds one request attempt; Attempts caps transport-level
	// retries (each moving to the next proxy); Backoff spaces them.
	Timeout  time.Duration
	Attempts int
	Backoff  time.Duration
}

// NewThinClient wraps an existing endpoint. Most callers want Dial.
func NewThinClient(clock *simtime.Clock, ep transport.Endpoint, proxies ...wire.NodeID) *ThinClient {
	return &ThinClient{
		clock:    clock,
		ep:       ep,
		proxies:  proxies,
		Timeout:  5 * time.Second,
		Attempts: 4,
		Backoff:  100 * time.Millisecond,
	}
}

// inertHandler ignores all inbound traffic: thin clients only ever issue
// requests. In particular, membership heartbeats multicast on the fabric
// are dropped here — that is the point of the tier.
type inertHandler struct{}

func (inertHandler) HandleCall(context.Context, wire.NodeID, any) (any, error) {
	return nil, transport.ErrNoHandler
}
func (inertHandler) HandleCast(wire.NodeID, any) {}

// Dial joins the network as node `name` and returns a thin client bound to
// the given proxies.
func Dial(clock *simtime.Clock, network transport.Network, name string, proxies ...wire.NodeID) (*ThinClient, error) {
	if len(proxies) == 0 {
		return nil, fmt.Errorf("proxy: Dial %s: no proxies given", name)
	}
	ep, err := network.Join(wire.NodeID(name), inertHandler{})
	if err != nil {
		return nil, err
	}
	return NewThinClient(clock, ep, proxies...), nil
}

// Close leaves the network.
func (t *ThinClient) Close() { t.ep.Close() }

// call sends one request. The client is sticky: it keeps talking to the
// same proxy (so a write session's requests all land where the session
// lives) and fails over to the next proxy only on a transport error —
// reconnecting through the load balancer. Protocol-level errors (resp.Err
// set) are returned to the caller as-is; only the transport layer is
// retried, so non-idempotent requests are never silently replayed after a
// definitive answer.
func (t *ThinClient) call(req any) (any, error) {
	attempts := t.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	timeout := t.Timeout
	if floor := t.clock.Modeled(50 * time.Millisecond); floor > timeout {
		timeout = floor
	}
	cur := t.rr.Load()
	var lastErr error
	for i := 0; i < attempts; i++ {
		target := t.proxies[int(cur+uint64(i))%len(t.proxies)]
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		resp, err := t.ep.Call(ctx, target, req)
		cancel()
		if err == nil {
			if i > 0 {
				t.rr.Store(cur + uint64(i)) // stick to the proxy that answered
			}
			return resp, nil
		}
		lastErr = err
		if i+1 < attempts && t.Backoff > 0 {
			t.clock.Sleep(t.Backoff << uint(i))
		}
	}
	return nil, lastErr
}

// Read reads up to length bytes at off, returning the data, the version it
// came from, and whether the read hit end of file.
func (t *ThinClient) Read(path string, off, length int64) ([]byte, uint64, bool, error) {
	resp, err := t.call(wire.PRead{Path: path, Offset: off, Length: length})
	if err != nil {
		return nil, 0, false, err
	}
	r, ok := resp.(wire.PReadResp)
	if !ok {
		return nil, 0, false, fmt.Errorf("proxy: unexpected read response %T", resp)
	}
	if !r.OK {
		return nil, 0, false, errors.New(r.Err)
	}
	return r.Data, r.Version, r.EOF, nil
}

// ReadVersion reads from a pinned committed version instead of the latest;
// the proxy bypasses its read cache for pinned reads.
func (t *ThinClient) ReadVersion(path string, off, length int64, version uint64) ([]byte, error) {
	resp, err := t.call(wire.PRead{Path: path, Offset: off, Length: length, Version: version})
	if err != nil {
		return nil, err
	}
	r, ok := resp.(wire.PReadResp)
	if !ok {
		return nil, fmt.Errorf("proxy: unexpected read response %T", resp)
	}
	if !r.OK {
		return nil, errors.New(r.Err)
	}
	return r.Data, nil
}

// Write writes data at off within the session sess on path. The first
// write of a session opens it; create makes the file when absent.
func (t *ThinClient) Write(sess, path string, off int64, data []byte, create bool, replDeg int) error {
	resp, err := t.call(wire.PWrite{Sess: sess, Path: path, Offset: off, Data: data, Create: create, ReplDeg: replDeg})
	if err != nil {
		return err
	}
	r, ok := resp.(wire.PWriteResp)
	if !ok {
		return fmt.Errorf("proxy: unexpected write response %T", resp)
	}
	if !r.OK {
		return errors.New(r.Err)
	}
	if r.N != len(data) {
		return fmt.Errorf("proxy: short write %d/%d", r.N, len(data))
	}
	return nil
}

// Commit publishes the session's writes; data is durable only after Commit
// returns the new version. A lost-response commit surfaces as an error
// ("unknown session"): the caller must treat the write as not acked and
// redo it under a fresh session name.
func (t *ThinClient) Commit(sess, path string) (uint64, int64, error) {
	resp, err := t.call(wire.PCommit{Sess: sess, Path: path})
	if err != nil {
		return 0, 0, err
	}
	r, ok := resp.(wire.PCommitResp)
	if !ok {
		return 0, 0, fmt.Errorf("proxy: unexpected commit response %T", resp)
	}
	if !r.OK {
		return 0, 0, errors.New(r.Err)
	}
	return r.Version, r.Size, nil
}

// Abort discards the session's uncommitted writes.
func (t *ThinClient) Abort(sess, path string) error {
	resp, err := t.call(wire.PAbort{Sess: sess, Path: path})
	if err != nil {
		return err
	}
	if r, ok := resp.(wire.GenericResp); ok && !r.OK {
		return errors.New(r.Err)
	}
	return nil
}

// Stat resolves path to its file entry.
func (t *ThinClient) Stat(path string) (wire.FileEntry, error) {
	resp, err := t.call(wire.PStat{Path: path})
	if err != nil {
		return wire.FileEntry{}, err
	}
	r, ok := resp.(wire.PStatResp)
	if !ok {
		return wire.FileEntry{}, fmt.Errorf("proxy: unexpected stat response %T", resp)
	}
	if !r.OK {
		return wire.FileEntry{}, errors.New(r.Err)
	}
	return r.Entry, nil
}

// Mkdir creates a directory.
func (t *ThinClient) Mkdir(path string) error {
	return t.generic(wire.PMkdir{Path: path})
}

// Remove unlinks a file.
func (t *ThinClient) Remove(path string) error {
	return t.generic(wire.PRemove{Path: path})
}

func (t *ThinClient) generic(req any) error {
	resp, err := t.call(req)
	if err != nil {
		return err
	}
	r, ok := resp.(wire.GenericResp)
	if !ok {
		return fmt.Errorf("proxy: unexpected response %T", resp)
	}
	if !r.OK {
		return errors.New(r.Err)
	}
	return nil
}

// PutFile writes data as one commit under a fresh session, chunking large
// payloads, and returns the committed version.
func (t *ThinClient) PutFile(path string, data []byte, replDeg int) (uint64, error) {
	sess := fmt.Sprintf("%s#%d", t.ep.ID(), t.sessSeq.Add(1))
	const chunk = 256 << 10
	if len(data) == 0 {
		if err := t.Write(sess, path, 0, nil, true, replDeg); err != nil {
			return 0, err
		}
	}
	for off := 0; off < len(data); off += chunk {
		end := off + chunk
		if end > len(data) {
			end = len(data)
		}
		if err := t.Write(sess, path, int64(off), data[off:end], off == 0, replDeg); err != nil {
			t.Abort(sess, path)
			return 0, err
		}
	}
	ver, _, err := t.Commit(sess, path)
	return ver, err
}

// GetFile reads the whole file.
func (t *ThinClient) GetFile(path string) ([]byte, error) {
	const chunk = 256 << 10
	var out []byte
	for off := int64(0); ; {
		data, _, eof, err := t.Read(path, off, chunk)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
		off += int64(len(data))
		if eof || len(data) == 0 {
			return out, nil
		}
	}
}
