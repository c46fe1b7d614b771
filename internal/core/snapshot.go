package core

import (
	"fmt"
	"io"

	"hoyan/internal/config"
	"hoyan/internal/netmodel"
	"hoyan/internal/wire"
)

// Snapshot is the wire form of a network model: every device's configuration
// in its own vendor dialect, from which the topology is derived, plus the
// monitored state (the down nodes and links). The master uploads one snapshot
// per simulation task to the object store; workers restore it.
//
// It shares internal/wire's Snapshot struct, so encoding is a free
// conversion: blobs are written in the compact binary wire format.
type Snapshot wire.Snapshot

// TakeSnapshot serializes a network model.
func TakeSnapshot(net *config.Network) *Snapshot {
	s := &Snapshot{Configs: make(map[string]string, len(net.Devices))}
	for name, d := range net.Devices {
		s.Configs[name] = config.Serialize(d)
	}
	for _, n := range net.Topo.Nodes() {
		if !n.Up {
			s.DownNodes = append(s.DownNodes, n.Name)
		}
	}
	for _, l := range net.Topo.Links() {
		if !l.Up {
			s.DownLinks = append(s.DownLinks, l.ID())
		}
	}
	return s
}

// RestoreParallel parses the snapshot back into a network model, device
// configurations on a worker pool (par conventions: 0 = GOMAXPROCS, 1 =
// sequential), derives its topology and marks the down sets on it. The
// restored model is identical at any parallelism.
func (s *Snapshot) RestoreParallel(parallelism int) (*config.Network, error) {
	net, err := config.BuildNetworkOpts(s.Configs, nil, config.BuildOptions{Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	if _, err := (Delta{NodesDown: s.DownNodes, LinksDown: s.DownLinks}).Apply(net); err != nil {
		return nil, fmt.Errorf("core: restoring snapshot: %w", err)
	}
	return net, nil
}

// Encode writes the snapshot in the compact binary wire format (flate
// compressed: configuration text dominates).
func (s *Snapshot) Encode(w io.Writer) error {
	if err := wire.EncodeSnapshot(w, (*wire.Snapshot)(s)); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot reads a snapshot written by Encode.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	ws, err := wire.DecodeSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return (*Snapshot)(ws), nil
}

// EncodeRoutes writes route rows in the framework's wire format (compact
// binary with string/AS-path/community interning).
func EncodeRoutes(w io.Writer, routes []netmodel.Route) error {
	if err := wire.EncodeRoutes(w, routes); err != nil {
		return fmt.Errorf("core: encoding routes: %w", err)
	}
	return nil
}

// DecodeRoutes reads route rows written by EncodeRoutes.
func DecodeRoutes(r io.Reader) ([]netmodel.Route, error) {
	out, err := wire.DecodeRoutes(r)
	if err != nil {
		return nil, fmt.Errorf("core: decoding routes: %w", err)
	}
	return out, nil
}

// EncodeFlows writes flows in the framework's wire format.
func EncodeFlows(w io.Writer, flows []netmodel.Flow) error {
	if err := wire.EncodeFlows(w, flows); err != nil {
		return fmt.Errorf("core: encoding flows: %w", err)
	}
	return nil
}

// DecodeFlows reads flows written by EncodeFlows.
func DecodeFlows(r io.Reader) ([]netmodel.Flow, error) {
	out, err := wire.DecodeFlows(r)
	if err != nil {
		return nil, fmt.Errorf("core: decoding flows: %w", err)
	}
	return out, nil
}
