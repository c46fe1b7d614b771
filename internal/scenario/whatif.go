package scenario

import (
	"fmt"

	"hoyan/internal/change"
	"hoyan/internal/config"
	"hoyan/internal/netmodel"
)

// What-if plan constructors. These build pure-delta change plans — up/down
// toggles and input-route changes only, no CLI commands — which the pipeline
// verifies as warm-started incremental forks of the cached base simulation.

// LinkFailurePlan simulates one link going down.
func LinkFailurePlan(id netmodel.LinkID) *change.Plan {
	return &change.Plan{
		ID:          fmt.Sprintf("whatif-link-%s-down", id),
		Type:        change.TopologyAdjust,
		Description: fmt.Sprintf("what-if: link %s fails", id),
		SetLinks:    []change.LinkUpDown{{ID: id, Up: false}},
	}
}

// LinkFailureSweep returns one single-link-failure plan per up link of the
// network — the classic exhaustive what-if sweep, every plan delta-only.
func LinkFailureSweep(net *config.Network) []*change.Plan {
	var plans []*change.Plan
	for _, l := range net.Topo.Links() {
		if l.Up {
			plans = append(plans, LinkFailurePlan(l.ID()))
		}
	}
	return plans
}
