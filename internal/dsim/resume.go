package dsim

import (
	"encoding/json"
	"fmt"
	"time"

	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
)

// persistMsg stores a subtask's message payload in the object store (under
// msgKey) before the subtask becomes visible in the task DB, so a restarted
// master can reconstruct every in-flight subtask from the substrates alone.
// Trace-propagation stamps are deliberately excluded: they belong to one
// enqueue, not to the subtask.
func (m *Master) persistMsg(msg SubtaskMsg) error {
	msg.TraceID, msg.ParentSpan, msg.EnqueuedUnixNano = "", "", 0
	msg.Attempt = 0
	data, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("dsim: encoding subtask message %s: %w", msg.key(), err)
	}
	if err := m.svc.Store.Put(msgKey(msg.TaskID, msg.Kind, msg.SubID), data); err != nil {
		return fmt.Errorf("dsim: persisting subtask message %s: %w", msg.key(), err)
	}
	return nil
}

// ResumeInfo summarizes what Master.Resume recovered.
type ResumeInfo struct {
	TaskID      string
	SnapshotKey string
	// RouteSubtasks / TrafficSubtasks are the total subtask counts found per
	// kind — what the caller passes back to Wait and the Collect functions.
	RouteSubtasks   int
	TrafficSubtasks int
	// Reenqueued counts subtasks re-enqueued with a bumped attempt epoch;
	// Done counts subtasks already complete (their results are reused as-is).
	Reenqueued int
	Done       int
}

// Resume reconstructs a task after a master restart: it reads the recovered
// task DB, reloads each subtask's persisted message from the object store,
// and re-enqueues every subtask that is not done with a bumped attempt epoch.
// The bump fences out both workers still executing a pre-restart attempt and
// stale copies of the message that survived in the recovered queue — exactly
// the mechanism re-enqueues use, so resumed runs converge to byte-identical
// results. Completed subtasks keep their results; the caller continues with
// Wait + Collect as if it had started the task itself (Simulation.Resume). A
// record of a kind this build does not run — a data directory written by
// another build — fails the resume before anything is re-enqueued.
func (m *Master) Resume(taskID string) (*ResumeInfo, error) {
	recs, err := m.svc.Tasks.List(taskID)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("dsim: nothing to resume: task %s has no recorded subtasks", taskID)
	}
	for _, rec := range recs {
		if rec.Kind != "route" && rec.Kind != "traffic" {
			return nil, fmt.Errorf("dsim: resume %s: subtask %s has unknown kind %q (recorded by another build?)",
				taskID, rec.Key(), rec.Kind)
		}
	}
	info := &ResumeInfo{TaskID: taskID}
	for _, rec := range recs {
		data, err := m.svc.Store.Get(msgKey(rec.TaskID, rec.Kind, rec.SubID))
		if err != nil {
			return nil, fmt.Errorf("dsim: resume %s: loading message of %s: %w", taskID, rec.Key(), err)
		}
		var msg SubtaskMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, fmt.Errorf("dsim: resume %s: decoding message of %s: %w", taskID, rec.Key(), err)
		}
		switch rec.Kind {
		case "route":
			info.RouteSubtasks++
		case "traffic":
			info.TrafficSubtasks++
		}
		if msg.SnapshotKey != "" {
			info.SnapshotKey = msg.SnapshotKey
		}
		msg.Attempt = rec.Attempts
		m.msgs[msg.key()] = msg
		if rec.Status == taskdb.StatusDone {
			info.Done++
			continue
		}
		if rec.Attempts >= m.MaxAttempts {
			return nil, fmt.Errorf("dsim: resume %s: subtask %s already exhausted %d attempts",
				taskID, rec.Key(), rec.Attempts)
		}
		m.metrics.ReenqueueResume.Inc()
		m.Events.Log("subtask.resume",
			telemetry.F("subtask", rec.Key()),
			telemetry.F("attempt", rec.Attempts+1),
			telemetry.F("prev_status", string(rec.Status)))
		rec.Status = taskdb.StatusPending
		rec.Attempts++
		rec.Worker = ""
		rec.Error = ""
		rec.EnqueuedAt = time.Now()
		rec.StartedAt = time.Time{}
		rec.HeartbeatAt = time.Time{}
		// Record before push, like reenqueue: a worker may pop the fresh
		// message immediately and its claim must not be clobbered.
		if _, err := m.svc.Tasks.FencedUpsert(rec); err != nil {
			return nil, err
		}
		msg.Attempt = rec.Attempts
		m.msgs[msg.key()] = msg
		sp := m.stampTrace(&msg)
		sp.SetTag("cause", "master_resume")
		enc, err := msg.encode()
		if err != nil {
			sp.End()
			return nil, err
		}
		err = m.svc.Queue.Push(Topic, enc)
		sp.End()
		if err != nil {
			// Push already retried by the substrate wrapper; the pending
			// record is covered by the lost-message sweep in Wait.
			m.logResumeEvent(rec, err)
		}
		info.Reenqueued++
	}
	return info, nil
}

// RouteTaskOf / TrafficTaskOf rebuild the task handles a resumed Wait/Collect
// sequence needs from a ResumeInfo.
func (info *ResumeInfo) RouteTask() *RouteTask {
	return &RouteTask{ID: info.TaskID, SnapshotKey: info.SnapshotKey, Subtasks: info.RouteSubtasks}
}

// TrafficTask rebuilds the traffic task handle (nil when the task had not
// reached the traffic phase).
func (info *ResumeInfo) TrafficTask() *TrafficTask {
	if info.TrafficSubtasks == 0 {
		return nil
	}
	return &TrafficTask{ID: info.TaskID, Subtasks: info.TrafficSubtasks}
}

func (m *Master) logResumeEvent(rec taskdb.Record, err error) {
	m.Events.Log("subtask.resume.push_failed",
		telemetry.F("subtask", rec.Key()),
		telemetry.F("error", err.Error()))
}
