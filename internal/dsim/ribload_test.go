package dsim

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"hoyan/internal/bgp"
	"hoyan/internal/core"
	"hoyan/internal/gen"
	"hoyan/internal/mq"
	"hoyan/internal/netmodel"
	"hoyan/internal/objstore"
	"hoyan/internal/taskdb"
)

// soloCluster is a master and one worker over fresh in-memory substrates; run
// has the worker execute exactly the n subtasks the master just enqueued.
type soloCluster struct {
	master *Master
	worker *Worker
}

func newSoloCluster() *soloCluster {
	svc := Services{Queue: mq.NewMemory(nil), Store: objstore.NewMemory(nil), Tasks: taskdb.NewMemory()}
	return &soloCluster{master: NewMaster(svc, nil), worker: NewWorker("solo", svc, nil)}
}

func (c *soloCluster) run(t *testing.T, taskID, kind string, n int) {
	t.Helper()
	c.worker.RunN(context.Background(), n)
	if err := c.master.Wait(taskID, kind, n); err != nil {
		t.Fatalf("%s/%s: %v", taskID, kind, err)
	}
}

func (c *soloCluster) routes(t *testing.T, taskID string, out *gen.Output, n int) *RouteTask {
	t.Helper()
	snapKey, err := c.master.UploadSnapshot(taskID, out.Net)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.master.StartRouteSimulation(taskID, snapKey, bgp.Groups(out.Net), out.Inputs, n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.run(t, taskID, "route", rt.Subtasks)
	return rt
}

func (c *soloCluster) traffic(t *testing.T, taskID string, rt *RouteTask, flows []netmodel.Flow, n int) *TrafficSummary {
	t.Helper()
	tt, err := c.master.StartTrafficSimulation(taskID, rt, flows, n, StrategyOrdered, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.run(t, taskID, "traffic", tt.Subtasks)
	sum, err := c.master.CollectTrafficResults(tt)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestTrafficSubtaskOverlappingNoRouteFile: flows whose destinations lie
// beyond every route subtask's range load no file, and the subtask still
// succeeds over an empty RIB set.
func TestTrafficSubtaskOverlappingNoRouteFile(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	c := newSoloCluster()
	rt := c.routes(t, "far", out, 3)

	flows := slices.Clone(out.Flows[:4])
	for i := range flows {
		flows[i].Dst = netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i)}) // TEST-NET-1: no input covers it
	}
	sum := c.traffic(t, "far", rt, flows, 1)
	if !slices.Equal(sum.LoadedRIBFiles, []int{0}) {
		t.Fatalf("loaded RIB files per subtask = %v, want [0]", sum.LoadedRIBFiles)
	}
	if len(sum.Load) != 0 || len(sum.Paths) == 0 {
		t.Fatalf("%d loaded links and %d paths; want none and some (flows dropped at ingress)", len(sum.Load), len(sum.Paths))
	}
	if st := c.worker.Stats(); st.RIBTablesLoaded != 0 || st.RIBTablesBuilt != 0 {
		t.Fatalf("tables loaded/built = %d/%d over no file", st.RIBTablesLoaded, st.RIBTablesBuilt)
	}
}

// TestTrafficSubtaskLeavesCachedRowsIntact: a traffic subtask's RIB set
// references the worker's cached route-file rows (one file as it is, several
// merged), and reading them must leave every cached row as it was. With one
// route file and with several, the fleet still matches the centralized
// engine, and the forwarder builds at most the tables it loaded.
func TestTrafficSubtaskLeavesCachedRowsIntact(t *testing.T) {
	out := gen.Generate(gen.WAN(1))
	for _, nRoute := range []int{1, 4} {
		taskID := fmt.Sprintf("intact%d", nRoute)
		c := newSoloCluster()
		rt := c.routes(t, taskID, out, nRoute)

		c.worker.cacheMu.Lock()
		before := make(map[string][]netmodel.Route)
		for key, el := range c.worker.ribs.m {
			before[key] = slices.Clone(el.Value.(*lruEntry[ribEntry]).val.rows)
		}
		c.worker.cacheMu.Unlock()
		if len(before) != rt.Subtasks {
			t.Fatalf("%s: %d cached route files, want %d", taskID, len(before), rt.Subtasks)
		}

		sum := c.traffic(t, taskID, rt, out.Flows, 3)
		rib, err := c.master.CollectRouteResults(rt)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesCentral(t, out, distResult{RIB: rib, Sum: sum, Task: rt})

		st := c.worker.Stats()
		if st.RIBFileMisses != 0 || st.RIBFileHits == 0 {
			t.Fatalf("%s: RIB file hits/misses = %d/%d; want every file served from the cache", taskID, st.RIBFileHits, st.RIBFileMisses)
		}
		if st.RIBTablesLoaded == 0 || st.RIBTablesBuilt == 0 || st.RIBTablesBuilt > st.RIBTablesLoaded {
			t.Fatalf("%s: tables built/loaded = %d/%d", taskID, st.RIBTablesBuilt, st.RIBTablesLoaded)
		}
		for key, want := range before {
			got, err := c.worker.ribRows(key)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.EqualFunc(got, want, netmodel.Route.Identical) {
				t.Fatalf("%s: cached rows of %s changed while traffic subtasks read them", taskID, key)
			}
		}
	}
}
