// Command benchmark is the repository's benchmark: five workloads that take
// Hoyan from configuration bytes to a verdict through each of its entry
// points (CLI pipeline, k-failure sweep, input churn, dsim fleet, hoyand),
// measured end to end with tracing off and layer by layer on a separate
// traced run. See README.md in this directory.
//
//	go run ./benchmark                        # every workload, untraced + traced
//	go run ./benchmark -workload fleet_run    # one workload, contract output
//	go run ./benchmark -compare A.json B.json # judge two result sets
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"hoyan/internal/telemetry"
)

// benchDir is the benchmark's directory (golden.json, BENCH.jsonl, out/)
// relative to the repository root, which every mode runs from.
const benchDir = "benchmark"

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	runs         int
	updateGolden bool
	appendRows   bool
	compare      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and end with the contract's JSON line; empty runs all of them, each in a fresh process")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "workload seed: draws the fixture's flows and every delta sequence")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long the timed loop measures (BENCHMARK.json's run_seconds)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = untraced run reporting end-to-end metrics")
	flag.IntVar(&o.runs, "runs", 1, "with no -workload: repeat every workload this often, on seeds seed, seed+1, …")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "record this run's seed-42 outputs in golden.json instead of checking them")
	flag.BoolVar(&o.appendRows, "append", false, "with no -workload: append one row per (workload, metric) to BENCH.jsonl")
	flag.BoolVar(&o.compare, "compare", false, "judge two result sets: -compare A.json B.json")
	flag.Parse()

	var err error
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var worse int
		if worse, err = compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && worse > 0 {
			os.Exit(1)
		}
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// resultPath is where a run of the workload leaves its result file.
func resultPath(workload string, trace int) string {
	if trace == 1 {
		workload += ".layers"
	}
	return filepath.Join(benchDir, "out", workload+".json")
}

// runOne measures one workload in this process and prints the contract line.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	e := &env{seed: o.seed, seconds: time.Duration(o.seconds * float64(time.Second))}
	if o.trace == 1 {
		e.tr = telemetry.NewTracer("benchmark")
	}
	outDir := filepath.Join(benchDir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	goldenPath := filepath.Join(benchDir, "golden.json")
	golden, err := readGolden(goldenPath)
	if err != nil && !(o.updateGolden && os.IsNotExist(err)) {
		return err
	}

	out, golden, err := runWorkload(w, e, golden, o.updateGolden)
	if err != nil {
		return err
	}
	if o.updateGolden && o.seed == goldenSeed {
		if err := writeJSON(goldenPath, golden); err != nil {
			return err
		}
	}

	doc := newResultDoc(w, e, out)
	if e.tr != nil {
		f, err := os.Create(filepath.Join(outDir, "trace-"+w.name+".json"))
		if err == nil {
			err = telemetry.WriteChromeTrace(f, e.tr.Spans())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("writing Chrome trace: %w", err)
		}
	}
	if err := writeJSON(resultPath(w.name, o.trace), doc); err != nil {
		return err
	}

	fmt.Printf("%s seed=%d trace=%d samples=%d sha=%s nproc=%d %s\n",
		w.name, o.seed, o.trace, doc.Samples, doc.Meta.SHA, doc.Meta.NProc, doc.Meta.Go)
	printMetrics(os.Stdout, doc)
	line, err := json.Marshal(contractLine{Correct: doc.Correct, Attempted: doc.Attempted, Failed: doc.Failed, Metrics: doc.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload, untraced then traced, each in a fresh process
// of this same binary so that no workload inherits another's heap, and
// gathers the result files into out/results.json.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Meta: currentMeta()}
	incorrect := 0
	for run := 0; run < o.runs; run++ {
		seed := o.seed + int64(run)
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				args := []string{
					"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(trace),
				}
				if o.updateGolden {
					args = append(args, "-update-golden")
				}
				cmd := exec.Command(self, args...)
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (seed %d, trace %d): %w", w.name, seed, trace, err)
				}
				// Everything but the machine-readable last line is the table.
				text := bytes.TrimRight(stdout.Bytes(), "\n")
				if i := bytes.LastIndexByte(text, '\n'); i >= 0 {
					os.Stdout.Write(text[:i+1])
				}
				var doc resultDoc
				if err := readJSON(resultPath(w.name, trace), &doc); err != nil {
					return err
				}
				if !doc.Correct {
					incorrect++
				}
				set.Runs = append(set.Runs, doc)
			}
		}
	}
	if err := writeJSON(filepath.Join(benchDir, "out", "results.json"), set); err != nil {
		return err
	}
	if o.appendRows {
		if err := appendTrajectory(filepath.Join(benchDir, "BENCH.jsonl"), set.Runs); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed their output checks", incorrect)
	}
	return nil
}
