// Package dsim implements Hoyan's distributed simulation framework (§3.2,
// Figure 3): a master splits a simulation task into subtasks over disjoint
// input subsets, uploads each subset to the object store, and pushes one
// message per subtask into the message queue; working servers consume
// messages, run the core engine on their subset, and write result files; the
// master monitors the subtask database, re-enqueues failures, and aggregates
// results.
//
// The §3.2 *ordering heuristic* is implemented exactly as described: input
// routes are ordered by the last address of their prefix and split into
// contiguous subsets whose covered address range is recorded in the task DB;
// input flows are ordered by destination address, so a traffic subtask only
// loads the RIB files of route subtasks whose recorded range overlaps its
// own destination range.
package dsim

import (
	"encoding/json"
	"fmt"
	"net/netip"

	"hoyan/internal/bgp"
	"hoyan/internal/core"
	"hoyan/internal/mq"
	"hoyan/internal/netmodel"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
	"slices"
)

// Topic is the message-queue topic subtask messages travel on.
const Topic = "hoyan/subtasks"

// Services bundles the three substrate handles every framework role needs.
type Services struct {
	Queue mq.Queue
	Store objstore.Store
	Tasks taskdb.DB
}

// Strategy selects how traffic subtasks decide which route-subtask RIB files
// to load.
type Strategy string

// Strategies evaluated in Figure 5(b)/(d).
const (
	// StrategyOrdered is the §3.2 ordering heuristic: flows sorted by
	// destination, subtask ranges overlap-tested against route ranges.
	StrategyOrdered Strategy = "ordered"
	// StrategyRandom partitions flows in input (effectively random) order;
	// range overlap is still tested but covers nearly everything.
	StrategyRandom Strategy = "random"
	// StrategyBaseline loads every RIB file unconditionally.
	StrategyBaseline Strategy = "baseline"
)

// SubtaskMsg is the queue payload describing one subtask.
type SubtaskMsg struct {
	TaskID      string       `json:"task_id"`
	Kind        string       `json:"kind"` // "route" or "traffic"
	SubID       int          `json:"sub_id"`
	SnapshotKey string       `json:"snapshot_key"`
	InputKey    string       `json:"input_key"`
	ResultKey   string       `json:"result_key"`
	Options     core.Options `json:"options"`

	// Attempt is the attempt epoch this message belongs to (0 for the first
	// enqueue, bumped by the master on every re-enqueue). Workers stamp it
	// into their task-DB writes so a stale attempt — a worker the master
	// already presumed dead and reclaimed — cannot overwrite the status of
	// the attempt that superseded it (see taskdb.DB.FencedUpsert).
	Attempt int `json:"attempt,omitempty"`

	// Trace propagation: the master stamps its enqueue span's identity and
	// the enqueue wall time here, so the worker parents its subtask span (and
	// a synthetic mq.wait span) under the master's trace — one simulation run
	// yields a single end-to-end trace. Empty when tracing is off; the fields
	// never influence simulation results.
	TraceID          string `json:"trace_id,omitempty"`
	ParentSpan       string `json:"parent_span,omitempty"`
	EnqueuedUnixNano int64  `json:"enqueued_unix_nano,omitempty"`

	// Traffic subtasks only.
	RouteTaskID   string   `json:"route_task_id,omitempty"`
	RouteSubtasks int      `json:"route_subtasks,omitempty"`
	Strategy      Strategy `json:"strategy,omitempty"`
}

func (m SubtaskMsg) key() string {
	return fmt.Sprintf("%s/%s/%d", m.TaskID, m.Kind, m.SubID)
}

func (m SubtaskMsg) encode() (mq.Message, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return mq.Message{}, fmt.Errorf("dsim: encoding subtask message %s: %w", m.key(), err)
	}
	return mq.Message{ID: m.key(), Kind: m.Kind, Payload: payload}, nil
}

func decodeMsg(m mq.Message) (SubtaskMsg, error) {
	var out SubtaskMsg
	if err := json.Unmarshal(m.Payload, &out); err != nil {
		return out, fmt.Errorf("dsim: decoding subtask message %s: %w", m.ID, err)
	}
	return out, nil
}

// Object-store key layout.
func snapshotKey(taskID string) string { return "tasks/" + taskID + "/snapshot" }
func inputKey(taskID, kind string, sub int) string {
	return fmt.Sprintf("tasks/%s/%s/%d/input", taskID, kind, sub)
}
func resultKey(taskID, kind string, sub int) string {
	return fmt.Sprintf("tasks/%s/%s/%d/result", taskID, kind, sub)
}

// msgKey is where the master persists each subtask's message payload, so a
// restarted master can reconstruct and re-enqueue in-flight subtasks
// (Master.Resume) without re-deriving inputs it no longer holds in memory.
func msgKey(taskID, kind string, sub int) string {
	return fmt.Sprintf("tasks/%s/%s/%d/msg", taskID, kind, sub)
}

// subset is one subtask's input: a contiguous run of address-ordered items
// and the address range [Lo, Hi] that covers every one of them.
type subset[T any] struct {
	Items  []T
	Lo, Hi netip.Addr
}

// split cuts items, in address order, into at most n contiguous subsets. The
// even split points fall every ceil(len/n) items. A cut is made only where a
// new group starts, that is, where no group has items on both sides, so a
// group never straddles two subsets: each split point takes the group
// boundary nearest to it (the later one on a tie) among those after the
// previous cut. Once a group has moved a cut off its split point, the points
// after it spread the items left evenly over the subsets left. group(i)
// names item i's group; span returns the first and last address an item
// covers.
func split[T any, G comparable](items []T, n int, group func(i int) G, span func(T) (lo, hi netip.Addr)) []subset[T] {
	if len(items) == 0 {
		return nil
	}
	n = max(1, min(n, len(items)))
	last := make(map[G]int, len(items))
	for i := range items {
		last[group(i)] = i
	}
	var starts []int // positions where a new group starts
	reach := 0
	for i := range items {
		if i > 0 && reach < i {
			starts = append(starts, i)
		}
		reach = max(reach, last[group(i)])
	}
	per := (len(items) + n - 1) / n
	m := (len(items) + per - 1) / per // subsets the even split makes
	cuts := []int{0}
	for k := 1; k < m && len(starts) > 0; k++ {
		at, prev := k*per, cuts[k-1]
		if prev != at-per {
			at = prev + (len(items)-prev+m-k)/(m-k+1)
		}
		j, _ := slices.BinarySearch(starts, at)
		if j == len(starts) || j > 0 && at-starts[j-1] < starts[j]-at {
			j--
		}
		cuts = append(cuts, starts[j])
		starts = starts[j+1:]
	}
	cuts = append(cuts, len(items))
	out := make([]subset[T], len(cuts)-1)
	for k := range out {
		sub := subset[T]{Items: items[cuts[k]:cuts[k+1]]}
		sub.Lo, sub.Hi = span(sub.Items[0])
		for _, it := range sub.Items[1:] {
			lo, hi := span(it)
			if lo.Compare(sub.Lo) < 0 {
				sub.Lo = lo
			}
			if hi.Compare(sub.Hi) > 0 {
				sub.Hi = hi
			}
		}
		out[k] = sub
	}
	return out
}

// splitRoutes orders input routes by the last address of their prefix (the
// §3.2 ordering heuristic) and cuts them into at most n subsets along the
// network's independence groups: every route of a prefix, and every route an
// aggregate's group couples, lands in the same subset.
func splitRoutes(inputs []netmodel.Route, n int, groups bgp.Grouping) []subset[netmodel.Route] {
	routes := slices.Clone(inputs)
	slices.SortStableFunc(routes, func(a, b netmodel.Route) int {
		if c := netmodel.LastAddr(a.Prefix).Compare(netmodel.LastAddr(b.Prefix)); c != 0 {
			return c
		}
		return netmodel.CompareRouteKeys(a, b)
	})
	return split(routes, n, func(i int) netip.Prefix { return groups.Of(routes[i].Prefix) },
		func(r netmodel.Route) (netip.Addr, netip.Addr) {
			return r.Prefix.Masked().Addr(), netmodel.LastAddr(r.Prefix)
		})
}

// splitFlows orders flows by destination address (unless the random
// strategy keeps input order) and cuts them into at most n subsets. Each flow
// is a group of its own, so every cut falls exactly on its split point.
func splitFlows(flows []netmodel.Flow, n int, strategy Strategy) []subset[netmodel.Flow] {
	fs := slices.Clone(flows)
	if strategy != StrategyRandom {
		slices.SortStableFunc(fs, netmodel.CompareFlows)
	}
	return split(fs, n, func(i int) int { return i },
		func(f netmodel.Flow) (netip.Addr, netip.Addr) { return f.Dst, f.Dst })
}
