// Package rpcx is the net/rpc plumbing the distributed-simulation substrates
// (mq, objstore, taskdb) share: one accept loop (Serve) and a hardened client. The stock rpc.Client has
// two availability holes the paper's always-on deployment cannot live with:
// a hung or partitioned server blocks a call forever (no I/O deadlines), and
// any transport error bricks the client permanently (rpc.ErrShutdown on every
// later call). Client fixes both: dials carry a timeout, every read/write
// arms a rolling deadline, and a connection that dies is dropped and redialed
// on the next call, so one flake costs one errored call, not the process.
package rpcx

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"hoyan/internal/telemetry"
)

// Options tune a Client's timeouts.
type Options struct {
	// DialTimeout bounds connection establishment (0 = 5s).
	DialTimeout time.Duration
	// CallTimeout is a rolling per-read/per-write I/O deadline: a call fails
	// once the server goes silent for this long (0 = 30s). It must exceed the
	// longest legitimate server-side blocking interval (e.g. an mq long-poll
	// chunk), since a blocking server sends no bytes while it waits.
	CallTimeout time.Duration
	// Metrics, when non-nil, receives per-call latency, error, and redial
	// counts (see NewMetrics). Nil disables instrumentation.
	Metrics *Metrics
}

// Metrics are a client's RPC-level telemetry instruments. Construct with
// NewMetrics so every substrate client of a process lands in one registry,
// distinguished by the component label.
type Metrics struct {
	// Calls counts completed calls (successful or not); Errors the subset
	// that returned an error; Redials every re-established connection after
	// the initial dial.
	Calls   *telemetry.Counter
	Errors  *telemetry.Counter
	Redials *telemetry.Counter
	// Latency observes per-call wall time in seconds.
	Latency *telemetry.Histogram
}

// NewMetrics registers the standard RPC client metrics for one component
// (e.g. "mq", "objstore", "taskdb") in reg. A nil reg yields detached
// instruments, so the result is always safe to use.
func NewMetrics(reg *telemetry.Registry, component string) *Metrics {
	l := telemetry.L("component", component)
	return &Metrics{
		Calls:   reg.Counter("hoyan_rpc_calls_total", "completed substrate RPC calls", l),
		Errors:  reg.Counter("hoyan_rpc_errors_total", "substrate RPC calls that returned an error", l),
		Redials: reg.Counter("hoyan_rpc_redials_total", "substrate RPC connections re-established after a failure", l),
		Latency: reg.Histogram("hoyan_rpc_latency_seconds", "substrate RPC call latency", telemetry.DurationBuckets, l),
	}
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 30 * time.Second
	}
	return o
}

// Client is a reconnecting net/rpc client: transport failures mark the
// connection dead, and the next call transparently redials. Server-side
// errors (rpc.ServerError) do not affect the connection. Safe for concurrent
// use.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	rc     *rpc.Client
	dialed bool
	closed bool
}

// Dial connects to addr eagerly (so configuration errors surface at startup)
// and returns a reconnecting client.
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	if _, err := c.conn(); err != nil {
		return nil, err
	}
	return c, nil
}

// conn returns the live connection, dialing if needed.
func (c *Client) conn() (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, rpc.ErrShutdown
	}
	if c.rc != nil {
		return c.rc, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("rpcx: dial %s: %w", c.addr, err)
	}
	if c.dialed && c.opts.Metrics != nil {
		c.opts.Metrics.Redials.Inc()
	}
	c.dialed = true
	c.rc = rpc.NewClient(&deadlineConn{Conn: nc, timeout: c.opts.CallTimeout})
	return c.rc, nil
}

// drop discards rc if it is still the current connection, so the next call
// redials.
func (c *Client) drop(rc *rpc.Client) {
	c.mu.Lock()
	if c.rc == rc {
		c.rc = nil
	}
	c.mu.Unlock()
	rc.Close()
}

// Call invokes a remote method. A connection already known dead
// (rpc.ErrShutdown before the request is sent) is redialed and the call
// reissued once — that path cannot double-execute the request. Errors that
// surface mid-call (deadline, EOF, resets) drop the connection and are
// returned to the caller: whether the server executed the request is unknown,
// so reissuing is the caller's (or a retry policy's) decision.
func (c *Client) Call(method string, args, reply any) (err error) {
	if m := c.opts.Metrics; m != nil {
		start := time.Now()
		defer func() {
			m.Calls.Inc()
			m.Latency.Observe(time.Since(start).Seconds())
			if err != nil {
				m.Errors.Inc()
			}
		}()
	}
	for redialed := false; ; redialed = true {
		rc, err := c.conn()
		if err != nil {
			return err
		}
		err = rc.Call(method, args, reply)
		if err == nil {
			return nil
		}
		if _, server := err.(rpc.ServerError); server {
			return err // application error: connection is fine
		}
		c.drop(rc)
		if err == rpc.ErrShutdown && !redialed {
			continue // request never left this process: safe to reissue
		}
		return fmt.Errorf("rpcx: call %s on %s: %w", method, c.addr, err)
	}
}

// Close shuts the client down; later calls fail with rpc.ErrShutdown.
func (c *Client) Close() error {
	c.mu.Lock()
	rc := c.rc
	c.rc, c.closed = nil, true
	c.mu.Unlock()
	if rc != nil {
		return rc.Close()
	}
	return nil
}

// Serve registers rcvr under name on a fresh rpc server and serves
// connections on l until the listener is closed. It returns immediately;
// accept errors end the loop silently (listener closed).
func Serve(l net.Listener, name string, rcvr any) {
	srv := rpc.NewServer()
	srv.RegisterName(name, rcvr)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
}

// deadlineConn arms a fresh read/write deadline on every operation, turning
// the absolute deadlines of net.Conn into a rolling inactivity timeout.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if err := c.Conn.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}
