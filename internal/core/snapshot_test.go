package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hoyan/internal/gen"
	"hoyan/internal/wire"
)

// TestModelDirRoundTrip: LoadModel reads back what WriteModel wrote — the same
// configuration texts, inputs and flows, simulating to the same RIB and link
// loads — an absent inputs or flows file is nil, a truncated one is an error
// naming it that wraps wire.ErrCorrupt, and a directory in use is refused.
func TestModelDirRoundTrip(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	dir := filepath.Join(t.TempDir(), "wan1")
	if err := WriteModel(dir, out.Net, out.Inputs, out.Flows); err != nil {
		t.Fatal(err)
	}
	net, inputs, flows, err := LoadModel(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(TakeSnapshot(net).Configs, TakeSnapshot(out.Net).Configs) {
		t.Fatal("configuration texts changed in the round trip")
	}
	if !reflect.DeepEqual(inputs, out.Inputs) || !reflect.DeepEqual(flows, out.Flows) {
		t.Fatalf("inputs/flows changed in the round trip: %d/%d, want %d/%d", len(inputs), len(flows), len(out.Inputs), len(out.Flows))
	}
	want := NewEngine(out.Net, Options{}).Run(out.Inputs, out.Flows)
	got := NewEngine(net, Options{}).Run(inputs, flows)
	if resultDigest(got) != resultDigest(want) {
		t.Fatal("the loaded model simulates to another RIB or other link loads")
	}

	bare := filepath.Join(t.TempDir(), "bare")
	if err := WriteModel(bare, out.Net, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(bare, inputsFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s written without inputs: %v", inputsFile, err)
	}
	if net, inputs, flows, err := LoadModel(bare, 1); err != nil || inputs != nil || flows != nil || len(net.Devices) != len(out.Net.Devices) {
		t.Fatalf("configurations alone: %d inputs, %d flows, err %v; want a network and nil", len(inputs), len(flows), err)
	}

	path := filepath.Join(dir, inputsFile)
	frame, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, frame[:len(frame)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadModel(dir, 0); !errors.Is(err, wire.ErrCorrupt) || !strings.Contains(err.Error(), path) {
		t.Fatalf("truncated %s: %v, want wire.ErrCorrupt naming the file", inputsFile, err)
	}

	if err := WriteModel(dir, out.Net, out.Inputs, out.Flows); err == nil {
		t.Fatal("WriteModel over a model directory succeeded, want an error")
	}
}
