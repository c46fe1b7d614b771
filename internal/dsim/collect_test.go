package dsim

import (
	"bytes"
	"slices"
	"testing"

	"hoyan/internal/bgp"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
	"hoyan/internal/telemetry"
	"hoyan/internal/wire"
)

// TestCollectRouteResultsOverlappingSubtasks: the merge-and-adjacent-dedupe
// collection returns exactly what the collection it replaced returned —
// concatenate every subtask file, keep the first row per signature, sort the
// lot — on a run whose subtask files overlap (every subtask derives the same
// local routes) and whose inputs carry duplicates, so key ties and Identical
// rows both occur; and a second run returns the same rows at the same
// positions.
func TestCollectRouteResultsOverlappingSubtasks(t *testing.T) {
	out := gen.Generate(gen.WAN(2))
	inputs := gen.WithDuplicateInputs(out.Inputs)
	c := startLocal(t, LocalOptions{Workers: 4})
	defer c.Stop()
	snapKey, err := c.Master.UploadSnapshot("t", out.Net)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(taskID string) (*RouteTask, []netmodel.Route) {
		task, err := c.Master.StartRouteSimulation(taskID, snapKey, bgp.Groups(out.Net), inputs, 8, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Master.Wait(taskID, "route", task.Subtasks); err != nil {
			t.Fatal(err)
		}
		g, err := c.Master.CollectRouteResults(task)
		if err != nil {
			t.Fatal(err)
		}
		return task, g.Rows()
	}
	task, got := collect("t1")

	var concat []netmodel.Route
	for i := 0; i < task.Subtasks; i++ {
		data, err := c.Svc.Store.Get(resultKey(task.ID, "route", i))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := core.DecodeRoutes(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		concat = append(concat, rows...)
	}
	want := dedupe(netmodel.NewGlobalRIBFromSorted(concat)).Rows()
	if len(want) == len(concat) {
		t.Fatal("subtask files do not overlap; the dedupe went untested")
	}
	if !slices.EqualFunc(got, want, netmodel.Route.Identical) {
		t.Fatalf("collected %d rows, reference (seen-map + full sort) %d, or positions differ", len(got), len(want))
	}
	ties := 0
	for i := 1; i < len(got); i++ {
		if netmodel.CompareRouteKeys(got[i-1], got[i]) == 0 {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no key ties among the collected rows; the total order went untested")
	}
	if _, again := collect("t2"); !slices.EqualFunc(got, again, netmodel.Route.Identical) {
		t.Fatal("a second run's collected rows differ positionally from the first's")
	}
}

// missingRecordDB is a task DB that reports one subtask's record missing.
type missingRecordDB struct {
	taskdb.DB
	kind string
	sub  int
}

func (d missingRecordDB) Get(taskID, kind string, sub int) (taskdb.Record, bool, error) {
	if kind == d.kind && sub == d.sub {
		return taskdb.Record{}, false, nil
	}
	return d.DB.Get(taskID, kind, sub)
}

// TestCollectTrafficResultsMissingRecord: LoadedRIBFiles holds one count per
// subtask, in subtask order, and a subtask whose task-DB record is missing
// fails the collection instead of shifting every later count one place.
func TestCollectTrafficResultsMissingRecord(t *testing.T) {
	store, db := objstore.NewMemory(nil), taskdb.NewMemory()
	task := &TrafficTask{ID: "t", Subtasks: 3}
	for i := range task.Subtasks {
		var buf bytes.Buffer
		if err := wire.EncodeTrafficResult(&buf, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(resultKey(task.ID, "traffic", i), buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		rec := taskdb.Record{TaskID: task.ID, Kind: "traffic", SubID: i, Status: taskdb.StatusDone, LoadedRIBFiles: 10 + i}
		if err := db.Upsert(rec); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := NewMaster(Services{Store: store, Tasks: db}, telemetry.NewRegistry()).CollectTrafficResults(task)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{10, 11, 12}; !slices.Equal(sum.LoadedRIBFiles, want) {
		t.Errorf("LoadedRIBFiles = %v, want %v", sum.LoadedRIBFiles, want)
	}
	missing := missingRecordDB{DB: db, kind: "traffic", sub: 1}
	if sum, err := NewMaster(Services{Store: store, Tasks: missing}, telemetry.NewRegistry()).CollectTrafficResults(task); err == nil {
		t.Errorf("subtask 1's record missing: no error, LoadedRIBFiles = %v", sum.LoadedRIBFiles)
	}
}
