package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
)

// TestForkCtxCancelledReturnsPromptly is the satellite guarantee behind
// per-query deadlines: a fork whose context is already dead must come back
// with the context's error without simulating the scenario.
func TestForkCtxCancelledReturnsPromptly(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)

	links := out.Net.Topo.Links()
	d := Delta{LinksDown: []netmodel.LinkID{links[0].ID()}}
	scratch := out.Net.Clone()
	applyDelta(scratch, d)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, _, err := eng.ForkCtxN(ctx, scratch, d, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForkCtxN on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("ForkCtxN on cancelled ctx returned a result")
	}
	// A full WAN(1) fork takes milliseconds; the cancelled one must not do
	// meaningfully more work than the entry checks. The bound is generous to
	// stay robust on loaded CI machines while still catching a fork that ran
	// the whole pipeline at larger scales.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled ForkCtxN took %v", elapsed)
	}

	// The full-fallback path (nodes up) must observe cancellation too.
	dn := Delta{NodesUp: []string{out.Net.Topo.Links()[0].A}}
	res, _, err = eng.ForkCtxN(ctx, out.Net.Clone(), dn, 0)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("full-fallback ForkCtxN on cancelled ctx: res=%v err=%v", res, err)
	}
}

// TestForkCtxLiveIdentity pins that threading a live context changes nothing:
// ForkCtxN(ctx) and Fork produce byte-identical results.
func TestForkCtxLiveIdentity(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := NewEngine(out.Net, Options{})
	eng.BaseRun(out.Inputs, out.Flows)

	links := out.Net.Topo.Links()
	step := len(links)/6 + 1
	for i := 0; i < len(links); i += step {
		d := Delta{LinksDown: []netmodel.LinkID{links[i].ID()}}
		scratch := out.Net.Clone()
		applyDelta(scratch, d)
		withCtx, _, err := eng.ForkCtxN(context.Background(), scratch, d, 0)
		if err != nil {
			t.Fatalf("ForkCtxN: %v", err)
		}
		plain, _ := eng.Fork(scratch, d)
		assertIdentical(t, links[i].ID().String(), withCtx, plain)
	}
}

// TestBaseRunCtxCancelledLeavesNoBase: a cancelled BaseRun must not capture a
// partial base, or later forks would warm-start from garbage.
func TestBaseRunCtxCancelledLeavesNoBase(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	eng := NewEngine(out.Net, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := eng.BaseRunCtx(ctx, out.Inputs, out.Flows); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("BaseRunCtx on cancelled ctx: res=%v err=%v", res, err)
	}
	if eng.BaseResult() != nil {
		t.Fatalf("cancelled BaseRunCtx left a base result")
	}

	// A live BaseRunCtx captures normally and BaseResult round-trips it.
	res, err := eng.BaseRunCtx(context.Background(), out.Inputs, out.Flows)
	if err != nil {
		t.Fatalf("BaseRunCtx: %v", err)
	}
	got := eng.BaseResult()
	if got == nil || got.Routes != res.Routes {
		t.Fatalf("BaseResult does not return the captured base result")
	}
}
