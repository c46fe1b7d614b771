package mq

import (
	"fmt"
	"net"
	"net/rpc"
	"time"

	"hoyan/internal/rpcx"
	"hoyan/internal/telemetry"
)

// Service exposes a Queue over net/rpc. It keeps its own RPC-level counters
// so Stats works even when the wrapped queue does not track any.
type Service struct {
	q Queue

	pushes *telemetry.Counter
	pops   *telemetry.Counter
}

// PushArgs are the arguments of MQ.Push.
type PushArgs struct {
	Topic string
	Msg   Message
}

// Push is the RPC form of Queue.Push.
func (s *Service) Push(args *PushArgs, _ *struct{}) error {
	if err := s.q.Push(args.Topic, args.Msg); err != nil {
		return err
	}
	s.pushes.Inc()
	return nil
}

// PopArgs are the arguments of MQ.Pop.
type PopArgs struct {
	Topic  string
	WaitMs int64
}

// PopReply is the result of MQ.Pop.
type PopReply struct {
	Msg Message
	OK  bool
}

// Pop is the RPC form of Queue.Pop. Long waits are chunked client-side; the
// server caps a single wait at 30s to keep connections healthy.
func (s *Service) Pop(args *PopArgs, reply *PopReply) error {
	wait := time.Duration(args.WaitMs) * time.Millisecond
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	m, ok, err := s.q.Pop(args.Topic, wait)
	if ok {
		s.pops.Inc()
	}
	reply.Msg, reply.OK = m, ok
	return err
}

// Stats is the RPC form of StatsProvider.Stats: the wrapped queue's counters
// when it tracks them (they include in-process traffic too), otherwise the
// RPC server's own (with a best-effort depth probe).
func (s *Service) Stats(_ *struct{}, reply *Stats) error {
	if sp, ok := s.q.(StatsProvider); ok {
		*reply = sp.Stats()
		return nil
	}
	*reply = Stats{Pushes: s.pushes.Value(), Pops: s.pops.Value()}
	return nil
}

// LenArgs are the arguments of MQ.Len.
type LenArgs struct{ Topic string }

// Len is the RPC form of Queue.Len.
func (s *Service) Len(args *LenArgs, reply *int) error {
	n, err := s.q.Len(args.Topic)
	*reply = n
	return err
}

// Serve serves q on l until the listener is closed, with the service's RPC
// counters registered in reg (nil reg = detached). It returns immediately.
func Serve(l net.Listener, q Queue, reg *telemetry.Registry) {
	rpcx.Serve(l, "MQ", &Service{
		q:      q,
		pushes: reg.Counter("hoyan_mq_rpc_pushes_total", "push RPCs served"),
		pops:   reg.Counter("hoyan_mq_rpc_pops_total", "pop RPCs that delivered a message"),
	})
}

// Client is a Queue talking to a remote Serve instance over a reconnecting
// connection with dial and per-call I/O timeouts.
type Client struct {
	c *rpcx.Client
	// chunk is the per-RPC slice of a long Pop wait; it must stay well below
	// the I/O timeout, since a waiting server legitimately sends no bytes.
	chunk time.Duration
}

// Dial connects to a queue server (the zero Options are the default timeouts).
func Dial(addr string, opts rpcx.Options) (*Client, error) {
	c, err := rpcx.Dial(addr, opts)
	if err != nil {
		return nil, fmt.Errorf("mq: dial %s: %w", addr, err)
	}
	chunk := 5 * time.Second
	if opts.CallTimeout > 0 && chunk > opts.CallTimeout/2 {
		chunk = opts.CallTimeout / 2
	}
	return &Client{c: c, chunk: chunk}, nil
}

// mapErr restores the ErrClosed sentinel, which crosses the RPC boundary as a
// flat rpc.ServerError string: without this, a worker cannot distinguish "the
// queue was shut down" (stop consuming) from a transient fault (retry).
func mapErr(err error) error {
	if err == nil {
		return nil
	}
	if se, ok := err.(rpc.ServerError); ok && string(se) == ErrClosed.Error() {
		return ErrClosed
	}
	return err
}

// Push implements Queue.
func (c *Client) Push(topic string, m Message) error {
	return mapErr(c.c.Call("MQ.Push", &PushArgs{Topic: topic, Msg: m}, &struct{}{}))
}

// Pop implements Queue, chunking long waits into server-side slices.
func (c *Client) Pop(topic string, wait time.Duration) (Message, bool, error) {
	deadline := time.Now().Add(wait)
	for {
		chunk := time.Until(deadline)
		if chunk <= 0 {
			return Message{}, false, nil
		}
		if chunk > c.chunk {
			chunk = c.chunk
		}
		var reply PopReply
		if err := c.c.Call("MQ.Pop", &PopArgs{Topic: topic, WaitMs: chunk.Milliseconds()}, &reply); err != nil {
			return Message{}, false, mapErr(err)
		}
		if reply.OK {
			return reply.Msg, true, nil
		}
		if time.Now().After(deadline) {
			return Message{}, false, nil
		}
	}
}

// Len implements Queue.
func (c *Client) Len(topic string) (int, error) {
	var n int
	err := c.c.Call("MQ.Len", &LenArgs{Topic: topic}, &n)
	return n, mapErr(err)
}

// Stats implements StatsProvider against the remote server (errors are
// swallowed: a stats probe failing should never fail a caller that only
// wants numbers — zeros are returned instead).
func (c *Client) Stats() Stats {
	var st Stats
	if err := c.c.Call("MQ.Stats", &struct{}{}, &st); err != nil {
		return Stats{}
	}
	return st
}

// Close closes the client connection.
func (c *Client) Close() error { return c.c.Close() }
