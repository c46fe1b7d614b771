package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"hoyan/internal/netmodel"
)

// sampleAdvs exercises the boundary-adv encoder paths: repeated device/VRF
// strings (interning), multi-route payloads, eBGP vs iBGP seams, and the
// zero adv.
func sampleAdvs() []netmodel.BoundaryAdv {
	routes := sampleRoutes()
	return []netmodel.BoundaryAdv{
		{
			From: "border-0-0", To: "rr-1-0", VRF: netmodel.DefaultVRF,
			Prefix: routes[0].Prefix, EBGP: true,
			FromAddr: routes[0].NextHop,
			Routes:   routes[:2],
		},
		{
			From: "border-0-0", To: "rr-1-1", VRF: netmodel.DefaultVRF,
			Prefix: routes[2].Prefix,
			Routes: routes[2:3],
		},
		{}, // zero adv: empty strings, zero prefix/addr, no payload
	}
}

func TestShardInputRoundTrip(t *testing.T) {
	want := &ShardInput{Routes: sampleRoutes(), Inbound: sampleAdvs()}
	var buf bytes.Buffer
	if err := EncodeShardInput(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeShardInput(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shard input round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestShardResultRoundTrip(t *testing.T) {
	want := &ShardResult{Exports: sampleAdvs(), Rows: sampleRoutes()}
	var buf bytes.Buffer
	if err := EncodeShardResult(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeShardResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shard result round trip:\n got %+v\nwant %+v", got, want)
	}
}

// FuzzContractCanonicalize asserts the seam encoding's core invariants on
// arbitrary input: the decoder never panics; any contract it accepts
// round-trips through the binary frame unchanged; and canonicalization is
// order-insensitive — any permutation of the advs canonicalizes to the same
// signature sequence (the ACORN-style property the contract-exchange
// fixpoint's convergence check depends on).
func FuzzContractCanonicalize(f *testing.F) {
	var seed bytes.Buffer
	if err := EncodeShardResult(&seed, &ShardResult{Exports: sampleAdvs(), Rows: sampleRoutes()[:1]}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), uint64(1))
	f.Add(seed.Bytes()[:len(seed.Bytes())/2], uint64(3)) // truncated
	corrupted := append([]byte(nil), seed.Bytes()...)
	corrupted[len(corrupted)/2] ^= 0xFF
	f.Add(corrupted, uint64(4))
	f.Add([]byte{}, uint64(5))

	f.Fuzz(func(t *testing.T, data []byte, permSeed uint64) {
		res, err := DecodeShardResult(bytes.NewReader(data))
		if err != nil {
			return
		}

		// Round trip: anything accepted re-encodes and re-decodes bytewise.
		var buf bytes.Buffer
		if err := EncodeShardResult(&buf, res); err != nil {
			t.Fatalf("re-encoding accepted contract: %v", err)
		}
		again, err := DecodeShardResult(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !bytes.Equal(contractSig(res), contractSig(again)) {
			t.Fatal("re-decode changed the contract")
		}

		// Canonicalization is permutation-invariant: shuffle the advs, then
		// both orders must canonicalize to identical signature sequences.
		canon := netmodel.CanonicalizeBoundary(append([]netmodel.BoundaryAdv(nil), res.Exports...))
		shuffled := append([]netmodel.BoundaryAdv(nil), res.Exports...)
		rnd := rand.New(rand.NewSource(int64(permSeed)))
		rnd.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		canon2 := netmodel.CanonicalizeBoundary(shuffled)
		if len(canon) != len(canon2) {
			t.Fatalf("canonical lengths differ: %d vs %d", len(canon), len(canon2))
		}
		for i := range canon {
			a := canon[i].AppendSignature(nil)
			b := canon2[i].AppendSignature(nil)
			if !bytes.Equal(a, b) {
				t.Fatalf("adv %d: canonical order depends on input order", i)
			}
		}
		if !netmodel.BoundarySetsEqual(res.Exports, canon2) {
			t.Fatal("canonicalization changed the advertisement set")
		}
	})
}

// contractSig is a shard result's injective semantic identity: every export's
// signature plus the rows wrapped as one pseudo-adv payload.
func contractSig(res *ShardResult) []byte {
	var dst []byte
	for i := range res.Exports {
		dst = res.Exports[i].AppendSignature(dst)
	}
	wrap := netmodel.BoundaryAdv{Routes: res.Rows}
	return wrap.AppendSignature(dst)
}
