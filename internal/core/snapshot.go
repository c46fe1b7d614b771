package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

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

// A model directory is the on-disk form of a model: one configuration file
// per device, named after the device (any extension; WriteModel writes
// .cfg), plus the optional input routes and flows in the fleet's wire
// frames under these two reserved names. Like a JSON upload it carries no
// down state: a Snapshot carries the fleet's down sets.
const (
	inputsFile = "inputs.wire"
	flowsFile  = "flows.wire"
)

// LoadModel reads a model directory: its configurations parsed at
// parallelism (par conventions) into a network, and its input routes and
// flows. An absent inputs or flows file gives nil; a file that does not
// decode is an error naming it that wraps the decoder's (wire.ErrCorrupt for
// a truncated or damaged file).
func LoadModel(dir string, parallelism int) (*config.Network, []netmodel.Route, []netmodel.Flow, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	configs := make(map[string]string, len(entries))
	for _, e := range entries {
		if e.IsDir() || e.Name() == inputsFile || e.Name() == flowsFile {
			continue
		}
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, nil, nil, err
		}
		configs[strings.TrimSuffix(e.Name(), filepath.Ext(e.Name()))] = string(text)
	}
	net, err := config.BuildNetworkOpts(configs, nil, config.BuildOptions{Parallelism: parallelism})
	if err != nil {
		return nil, nil, nil, err
	}
	inputs, err := readFrame(filepath.Join(dir, inputsFile), wire.DecodeRoutes)
	if err != nil {
		return nil, nil, nil, err
	}
	flows, err := readFrame(filepath.Join(dir, flowsFile), wire.DecodeFlows)
	if err != nil {
		return nil, nil, nil, err
	}
	return net, inputs, flows, nil
}

// readFrame decodes one wire file of a model directory; absent, it is nil.
func readFrame[T any](path string, decode func(io.Reader) ([]T, error)) ([]T, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out, err := decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return out, nil
}

// WriteModel writes a model directory that LoadModel reads back as the same
// model: config.Serialize of every device to <device>.cfg, and the inputs and
// flows frames when there are any. dir is created if need be and must hold
// nothing yet, so no file of an older model survives into this one.
func WriteModel(dir string, net *config.Network, inputs []netmodel.Route, flows []netmodel.Flow) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if entries, err := os.ReadDir(dir); err != nil {
		return err
	} else if len(entries) > 0 {
		return fmt.Errorf("core: model directory %s is not empty", dir)
	}
	for name, d := range net.Devices {
		if err := os.WriteFile(filepath.Join(dir, name+".cfg"), []byte(config.Serialize(d)), 0o644); err != nil {
			return err
		}
	}
	if err := writeFrame(filepath.Join(dir, inputsFile), inputs, wire.EncodeRoutes); err != nil {
		return err
	}
	return writeFrame(filepath.Join(dir, flowsFile), flows, wire.EncodeFlows)
}

// writeFrame writes rows as one wire file of a model directory; none, it
// writes no file.
func writeFrame[T any](path string, rows []T, encode func(io.Writer, []T) error) error {
	if len(rows) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := encode(&buf, rows); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
