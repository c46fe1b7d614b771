// Package objstore provides the cloud-object-storage substrate of the
// distributed simulation framework: subtask inputs and result files live
// here as opaque blobs, exactly like Hoyan uses Alibaba Cloud OSS.
//
// An in-memory store backs single-process clusters and tests, a disk store
// (one file per object under a journaled manifest) restart-safe ones; the TCP
// server/client pair (net/rpc over gob) backs multi-process deployments, and
// Decorate routes a handle's calls through a hook (retries, fault injection,
// crash-and-reopen).
package objstore

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"

	"hoyan/internal/rpcx"
	"hoyan/internal/telemetry"
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("objstore: not found")

// Store is the object storage interface.
type Store interface {
	// Put stores data under key, overwriting any existing object.
	Put(key string, data []byte) error
	// Get retrieves the object at key (ErrNotFound if absent).
	Get(key string) ([]byte, error)
	// List returns the keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Delete removes the object at key (no error if absent).
	Delete(key string) error
}

// Stats is a point-in-time copy of a store's transfer counters, tracked for
// the Figure 5(d) I/O evaluation.
type Stats struct {
	Puts     int64 `json:"puts"`
	Gets     int64 `json:"gets"`
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
}

// StatsProvider is implemented by stores that track transfer counters.
type StatsProvider interface {
	Stats() Stats
}

// Memory is an in-memory Store safe for concurrent use. Transfer counters
// are telemetry instruments — atomic, so Get stays a pure read-lock
// operation; Stats() is the compatibility view.
type Memory struct {
	mu   sync.RWMutex
	objs map[string][]byte

	counters storeCounters
}

// storeCounters is the one counter shape the in-memory store, the disk store
// and the RPC service use (the Figure 5(d) transfer accounting).
type storeCounters struct {
	puts, gets        *telemetry.Counter
	bytesIn, bytesOut *telemetry.Counter
}

// newStoreCounters registers the counters in reg under the given name prefix
// (nil reg = detached).
func newStoreCounters(reg *telemetry.Registry, prefix string) storeCounters {
	return storeCounters{
		puts:     reg.Counter(prefix+"puts_total", "objects written to the store"),
		gets:     reg.Counter(prefix+"gets_total", "objects read from the store"),
		bytesIn:  reg.Counter(prefix+"bytes_in_total", "bytes written to the store"),
		bytesOut: reg.Counter(prefix+"bytes_out_total", "bytes read from the store"),
	}
}

func (c *storeCounters) stats() Stats {
	return Stats{
		Puts: c.puts.Value(), Gets: c.gets.Value(),
		BytesIn: c.bytesIn.Value(), BytesOut: c.bytesOut.Value(),
	}
}

// NewMemory creates an empty in-memory store whose transfer counters are
// registered in reg (nil reg = detached).
func NewMemory(reg *telemetry.Registry) *Memory {
	return &Memory{objs: make(map[string][]byte), counters: newStoreCounters(reg, "hoyan_objstore_")}
}

// Put implements Store.
func (s *Memory) Put(key string, data []byte) error {
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	s.objs[key] = cp
	s.mu.Unlock()
	s.counters.puts.Inc()
	s.counters.bytesIn.Add(int64(len(data)))
	return nil
}

// Get implements Store.
func (s *Memory) Get(key string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.objs[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	s.counters.gets.Inc()
	s.counters.bytesOut.Add(int64(len(data)))
	return append([]byte(nil), data...), nil
}

// List implements Store.
func (s *Memory) List(prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k := range s.objs {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out, nil
}

// Delete implements Store.
func (s *Memory) Delete(key string) error {
	s.mu.Lock()
	delete(s.objs, key)
	s.mu.Unlock()
	return nil
}

// Stats implements StatsProvider.
func (s *Memory) Stats() Stats { return s.counters.stats() }

// Decorate returns a Store that routes every operation through hook. get
// supplies the handle each call runs against and is evaluated inside the
// hook, so a hook that swaps handles (crash-and-reopen) takes effect on the
// next call. call reports whether the operation was a write whose
// acknowledgement matters (Put): fault injection loses exactly those replies,
// everything else ignores it.
func Decorate(get func() Store, hook func(op string, call func() (acked bool, err error)) error) Store {
	return &decorated{get: get, hook: hook}
}

type decorated struct {
	get  func() Store
	hook func(op string, call func() (bool, error)) error
}

func (d *decorated) Put(key string, data []byte) error {
	return d.hook("store.Put", func() (bool, error) {
		err := d.get().Put(key, data)
		return err == nil, err
	})
}

func (d *decorated) Get(key string) (data []byte, err error) {
	err = d.hook("store.Get", func() (bool, error) {
		var e error
		data, e = d.get().Get(key)
		return false, e
	})
	return data, err
}

func (d *decorated) List(prefix string) (keys []string, err error) {
	err = d.hook("store.List", func() (bool, error) {
		var e error
		keys, e = d.get().List(prefix)
		return false, e
	})
	return keys, err
}

func (d *decorated) Delete(key string) error {
	return d.hook("store.Delete", func() (bool, error) {
		return false, d.get().Delete(key)
	})
}

// Service exposes a Store over net/rpc. It keeps its own RPC-level transfer
// counters (the same telemetry-backed shape the in-memory store uses) so
// Stats works even when the wrapped store does not track any.
type Service struct {
	s Store

	counters storeCounters
}

// PutArgs are the arguments of Store.Put.
type PutArgs struct {
	Key  string
	Data []byte
}

// Put is the RPC form of Store.Put.
func (sv *Service) Put(args *PutArgs, _ *struct{}) error {
	if err := sv.s.Put(args.Key, args.Data); err != nil {
		return err
	}
	sv.counters.puts.Inc()
	sv.counters.bytesIn.Add(int64(len(args.Data)))
	return nil
}

// GetReply is the result of Store.Get.
type GetReply struct {
	Data  []byte
	Found bool
}

// Get is the RPC form of Store.Get; missing keys are reported in-band so the
// sentinel error survives the RPC boundary.
func (sv *Service) Get(key *string, reply *GetReply) error {
	data, err := sv.s.Get(*key)
	if errors.Is(err, ErrNotFound) {
		reply.Found = false
		return nil
	}
	if err != nil {
		return err
	}
	sv.counters.gets.Inc()
	sv.counters.bytesOut.Add(int64(len(data)))
	reply.Data, reply.Found = data, true
	return nil
}

// Stats is the RPC form of StatsProvider.Stats: the wrapped store's counters
// when it tracks them (they include in-process traffic too), otherwise the
// RPC server's own.
func (sv *Service) Stats(_ *struct{}, reply *Stats) error {
	if sp, ok := sv.s.(StatsProvider); ok {
		*reply = sp.Stats()
		return nil
	}
	*reply = sv.counters.stats()
	return nil
}

// List is the RPC form of Store.List.
func (sv *Service) List(prefix *string, reply *[]string) error {
	keys, err := sv.s.List(*prefix)
	*reply = keys
	return err
}

// Delete is the RPC form of Store.Delete.
func (sv *Service) Delete(key *string, _ *struct{}) error { return sv.s.Delete(*key) }

// Serve serves s on l until the listener is closed, with the service's RPC
// counters registered in reg (nil reg = detached). It returns immediately.
func Serve(l net.Listener, s Store, reg *telemetry.Registry) {
	rpcx.Serve(l, "Store", &Service{s: s, counters: newStoreCounters(reg, "hoyan_objstore_rpc_")})
}

// Client is a Store talking to a remote Serve instance over a reconnecting
// connection with dial and per-call I/O timeouts.
type Client struct {
	c *rpcx.Client
}

// Dial connects to an object store server (the zero Options are the default
// timeouts).
func Dial(addr string, opts rpcx.Options) (*Client, error) {
	c, err := rpcx.Dial(addr, opts)
	if err != nil {
		return nil, fmt.Errorf("objstore: dial %s: %w", addr, err)
	}
	return &Client{c: c}, nil
}

// Put implements Store.
func (c *Client) Put(key string, data []byte) error {
	return c.c.Call("Store.Put", &PutArgs{Key: key, Data: data}, &struct{}{})
}

// Get implements Store.
func (c *Client) Get(key string) ([]byte, error) {
	var reply GetReply
	if err := c.c.Call("Store.Get", &key, &reply); err != nil {
		return nil, err
	}
	if !reply.Found {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return reply.Data, nil
}

// List implements Store.
func (c *Client) List(prefix string) ([]string, error) {
	var keys []string
	err := c.c.Call("Store.List", &prefix, &keys)
	return keys, err
}

// Delete implements Store.
func (c *Client) Delete(key string) error {
	return c.c.Call("Store.Delete", &key, &struct{}{})
}

// Stats implements StatsProvider against the remote server (the error is
// swallowed: a stats probe failing should never fail a caller that only
// wants numbers — zeros are returned instead).
func (c *Client) Stats() Stats {
	var st Stats
	if err := c.c.Call("Store.Stats", &struct{}{}, &st); err != nil {
		return Stats{}
	}
	return st
}

// Close closes the client connection.
func (c *Client) Close() error { return c.c.Close() }
