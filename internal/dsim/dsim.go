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

	"hoyan/internal/core"
	"hoyan/internal/mq"
	"hoyan/internal/netmodel"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
	"hoyan/internal/wire"
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

// splitRoutes orders input routes by the last address of their prefix and
// cuts them into n contiguous subsets, keeping routes with the same prefix
// in the same subset. It returns the subsets with their covered ranges.
func splitRoutes(inputs []netmodel.Route, n int) []routeSubset {
	routes := append([]netmodel.Route(nil), inputs...)
	slices.SortStableFunc(routes, func(a, b netmodel.Route) int {
		if c := netmodel.LastAddr(a.Prefix).Compare(netmodel.LastAddr(b.Prefix)); c != 0 {
			return c
		}
		return netmodel.CompareRouteKeys(a, b)
	})
	if n < 1 {
		n = 1
	}
	if n > len(routes) {
		n = len(routes)
	}
	var out []routeSubset
	if n == 0 {
		return out
	}
	per := (len(routes) + n - 1) / n
	for start := 0; start < len(routes); {
		end := start + per
		if end > len(routes) {
			end = len(routes)
		}
		// Never split a prefix across subsets.
		for end < len(routes) && routes[end].Prefix == routes[end-1].Prefix {
			end++
		}
		sub := routeSubset{Routes: routes[start:end]}
		sub.Lo = routes[start].Prefix.Masked().Addr()
		sub.Hi = netmodel.LastAddr(routes[end-1].Prefix)
		// The range must cover every member prefix (shorter prefixes may
		// start earlier / end later than the sort order suggests).
		for _, r := range sub.Routes {
			if a := r.Prefix.Masked().Addr(); a.Compare(sub.Lo) < 0 {
				sub.Lo = a
			}
			if a := netmodel.LastAddr(r.Prefix); a.Compare(sub.Hi) > 0 {
				sub.Hi = a
			}
		}
		out = append(out, sub)
		start = end
	}
	return out
}

type routeSubset struct {
	Routes []netmodel.Route
	Lo, Hi netip.Addr
}

// splitFlows orders flows by destination address (unless the random
// strategy keeps input order) and cuts them into n contiguous subsets.
func splitFlows(flows []netmodel.Flow, n int, strategy Strategy) []flowSubset {
	fs := append([]netmodel.Flow(nil), flows...)
	if strategy != StrategyRandom {
		slices.SortStableFunc(fs, netmodel.CompareFlows)
	}
	if n < 1 {
		n = 1
	}
	if n > len(fs) {
		n = len(fs)
	}
	var out []flowSubset
	if n == 0 {
		return out
	}
	per := (len(fs) + n - 1) / n
	for start := 0; start < len(fs); start += per {
		end := start + per
		if end > len(fs) {
			end = len(fs)
		}
		sub := flowSubset{Flows: fs[start:end]}
		sub.Lo, sub.Hi = fs[start].Dst, fs[start].Dst
		for _, f := range sub.Flows {
			if f.Dst.Compare(sub.Lo) < 0 {
				sub.Lo = f.Dst
			}
			if f.Dst.Compare(sub.Hi) > 0 {
				sub.Hi = f.Dst
			}
		}
		out = append(out, sub)
	}
	return out
}

type flowSubset struct {
	Flows  []netmodel.Flow
	Lo, Hi netip.Addr
}

// TrafficResultFile is the wire form of one traffic subtask's result. The
// struct lives in internal/wire so result files share the framework's compact
// binary codec.
type TrafficResultFile = wire.TrafficResult

// LoadEntry is one link's simulated volume.
type LoadEntry = wire.LoadEntry

// PathEntry is one flow's simulated path.
type PathEntry = wire.PathEntry

// PathWire is the wire form of netmodel.Path.
type PathWire = wire.Path
