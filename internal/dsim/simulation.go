package dsim

import (
	"hoyan/internal/bgp"
	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/netmodel"
)

// Simulation is one route + traffic simulation of a network on the fleet:
// what to run and, filled in as its stages complete, what came out. A stage
// hook sees every field the stages before it have set.
type Simulation struct {
	TaskID string
	Net    *config.Network
	Inputs []netmodel.Route
	// Flows may be empty: the traffic stages are then skipped and Traffic
	// and Summary stay nil.
	Flows           []netmodel.Flow
	RouteSubtasks   int
	TrafficSubtasks int
	Opts            core.Options
	// Resume, when non-nil, is what Master.Resume recovered of this task: the
	// run continues from its recorded subtasks instead of uploading the
	// snapshot and enqueueing them again. A task that had not reached the
	// traffic phase starts it fresh off Flows.
	Resume *ResumeInfo

	Route   *RouteTask
	RIB     *netmodel.GlobalRIB
	Traffic *TrafficTask
	Summary *TrafficSummary
}

// Simulate drives s end to end: upload_snapshot, route_enqueue, route_wait,
// route_collect, traffic_enqueue, traffic_wait, traffic_collect. Each stage
// runs inside stage(name, fn), which must call fn once and return its error —
// the seam callers time stages or print progress through; nil runs them bare.
// The first failing stage aborts the run.
func (m *Master) Simulate(s *Simulation, stage func(name string, fn func() error) error) error {
	if stage == nil {
		stage = func(_ string, fn func() error) error { return fn() }
	}
	if s.Resume != nil {
		s.Route, s.Traffic = s.Resume.RouteTask(), s.Resume.TrafficTask()
	} else {
		var snapKey string
		if err := stage("upload_snapshot", func() (err error) {
			snapKey, err = m.UploadSnapshot(s.TaskID, s.Net)
			return err
		}); err != nil {
			return err
		}
		if err := stage("route_enqueue", func() (err error) {
			s.Route, err = m.StartRouteSimulation(s.TaskID, snapKey, bgp.Groups(s.Net), s.Inputs, s.RouteSubtasks, s.Opts)
			return err
		}); err != nil {
			return err
		}
	}
	if err := stage("route_wait", func() error {
		return m.Wait(s.TaskID, "route", s.Route.Subtasks)
	}); err != nil {
		return err
	}
	if err := stage("route_collect", func() (err error) {
		s.RIB, err = m.CollectRouteResults(s.Route)
		return err
	}); err != nil {
		return err
	}
	if s.Traffic == nil {
		if len(s.Flows) == 0 {
			return nil
		}
		if err := stage("traffic_enqueue", func() (err error) {
			s.Traffic, err = m.StartTrafficSimulation(s.TaskID, s.Route, s.Flows, s.TrafficSubtasks, StrategyOrdered, s.Opts)
			return err
		}); err != nil {
			return err
		}
	}
	if err := stage("traffic_wait", func() error {
		return m.Wait(s.TaskID, "traffic", s.Traffic.Subtasks)
	}); err != nil {
		return err
	}
	return stage("traffic_collect", func() (err error) {
		s.Summary, err = m.CollectTrafficResults(s.Traffic)
		return err
	})
}
