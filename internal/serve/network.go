package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/intent"
	"hoyan/internal/netmodel"
)

// Network is one loaded snapshot: the parsed model, a warm engine with a
// completed BaseRun, and the base state's digest. What-if queries hold no
// network of their own: the engine lends each its scratch clone.
type Network struct {
	ID      string
	net     *config.Network
	inputs  []netmodel.Route
	flows   []netmodel.Flow
	eng     *core.Engine
	base    *core.Result
	baseDig string
	// baseSum is the base digest before encoding; blockSums holds each base
	// block's share of it, keyed by the block's first row. A query's digest
	// starts from baseSum and exchanges only the blocks its RIB replaced.
	baseSum   laneSum
	blockSums map[*netmodel.Route]laneSum
	baseSnap  *intent.Snapshot // base as intents read it: the PRE side of every query
	loadedAt  time.Time
}

// loadNetwork builds the engine and runs the base simulation once — the
// expensive cold start every subsequent query amortizes.
func loadNetwork(id string, net *config.Network, inputs []netmodel.Route, flows []netmodel.Flow, opts core.Options) (*Network, error) {
	eng := core.NewEngine(net, opts)
	base, err := eng.BaseRunCtx(nil, inputs, flows)
	if err != nil {
		return nil, fmt.Errorf("serve: base run: %w", err)
	}
	blocks := base.Routes.GlobalRIB().Blocks()
	n := &Network{
		ID:        id,
		net:       net,
		inputs:    inputs,
		flows:     flows,
		eng:       eng,
		base:      base,
		baseSnap:  intent.SnapshotOf(base),
		blockSums: make(map[*netmodel.Route]laneSum, len(blocks)),
		loadedAt:  time.Now(),
	}
	for _, b := range blocks {
		sum := sumRows(b)
		n.blockSums[&b[0]] = sum
		n.baseSum.add(sum)
	}
	n.baseDig = n.baseSum.String()
	return n, nil
}

// resolveLinks maps LinkRefs to link IDs on this network's topology.
func (n *Network) resolveLinks(refs []LinkRef) ([]netmodel.LinkID, error) {
	ids := make([]netmodel.LinkID, 0, len(refs))
	for _, ref := range refs {
		l := n.net.Topo.FindLink(ref.A, ref.B)
		if l == nil {
			return nil, fmt.Errorf("serve: no link between %q and %q", ref.A, ref.B)
		}
		ids = append(ids, l.ID())
	}
	return ids, nil
}

// laneSum accumulates the RIB digest: each row's signature is sha256-hashed
// and the per-row hashes are summed lane-wise (sums, unlike XOR, don't cancel
// duplicate rows). Two states with equal digests carry byte-identical RIB row
// sets regardless of row order — this is the equivalence the e2e test checks
// against the batch CLI path. The sum is additive over any split of the rows
// and wraps, so a block's share can be taken out again by subtraction: the
// digest of a what-if's RIB is the base sum with the replaced blocks' shares
// exchanged, bit for bit what hashing every row afresh gives.
type laneSum [4]uint64

func (a *laneSum) add(b laneSum) {
	for lane := range a {
		a[lane] += b[lane]
	}
}

func (a *laneSum) sub(b laneSum) {
	for lane := range a {
		a[lane] -= b[lane]
	}
}

func (a laneSum) String() string {
	var out [32]byte
	for lane, v := range a {
		binary.BigEndian.PutUint64(out[lane*8:], v)
	}
	return hex.EncodeToString(out[:])
}

// sumRows hashes rows into a laneSum. It avoids the sort and the per-row
// allocations a canonical-order hash would need.
func sumRows(rows []netmodel.Route) laneSum {
	var acc laneSum
	buf := netmodel.GetSigBuf()
	defer netmodel.PutSigBuf(buf)
	for i := range rows {
		*buf = rows[i].AppendSignature((*buf)[:0])
		sum := sha256.Sum256(*buf)
		for lane := range acc {
			acc[lane] += binary.BigEndian.Uint64(sum[lane*8:])
		}
	}
	return acc
}

// ribWork is what digesting and diffing one query's RIB against the base
// cost, in rows, and how many base blocks it shared and so never read.
type ribWork struct {
	hashed, unshared, sharedBlocks int
}

// digestAgainstBase digests updated by exchanging, in the base sum, the share
// of every base block updated does not reference for the hash of the block
// updated holds instead. A RIB that shares nothing hashes every row; the base
// itself hashes none.
func (n *Network) digestAgainstBase(updated *netmodel.GlobalRIB) (string, ribWork) {
	acc := n.baseSum
	var w ribWork
	netmodel.JoinBlocks(n.base.Routes.GlobalRIB(), updated, func(b, u []netmodel.Route) {
		if netmodel.SameBlock(b, u) {
			w.sharedBlocks++
			return
		}
		if b != nil {
			acc.sub(n.blockSums[&b[0]])
		}
		if u != nil {
			acc.add(sumRows(u))
			w.hashed += len(u)
		}
		w.unshared += len(b) + len(u)
	})
	return acc.String(), w
}

// RIBRow is one route row of GET /v1/networks/{id}/rib.
type RIBRow struct {
	Device   string `json:"device"`
	VRF      string `json:"vrf,omitempty"`
	Prefix   string `json:"prefix"`
	Protocol string `json:"protocol"`
	NextHop  string `json:"next_hop"`
	Peer     string `json:"peer,omitempty"`
}

// ribQuery filters the base global RIB by device and/or prefix, capped at
// limit rows (0 = 1000).
func (n *Network) ribQuery(device, prefix string, limit int) []RIBRow {
	if limit <= 0 {
		limit = 1000
	}
	var out []RIBRow
	for _, r := range n.base.Routes.GlobalRIB().Rows() {
		if device != "" && r.Device != device {
			continue
		}
		if prefix != "" && r.Prefix.String() != prefix {
			continue
		}
		out = append(out, RIBRow{
			Device:   r.Device,
			VRF:      r.VRF,
			Prefix:   r.Prefix.String(),
			Protocol: r.Protocol.String(),
			NextHop:  r.NextHop.String(),
			Peer:     r.Peer,
		})
		if len(out) >= limit {
			break
		}
	}
	return out
}
