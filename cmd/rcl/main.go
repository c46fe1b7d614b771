// Command rcl parses and checks RCL route-change-intent specifications.
//
// Usage:
//
//	rcl -spec 'prefix = 10.0.0.0/24 => POST |> distVals(localPref) = {300}' \
//	    -pre base.json -post updated.json
//	rcl -spec '...' -parse-only
//
// The RIB files are JSON arrays of route rows as written by the distributed
// framework's result files (core.EncodeRoutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"hoyan/internal/core"
	"hoyan/internal/netmodel"
	"hoyan/internal/rcl"
)

func main() {
	spec := flag.String("spec", "", "RCL specification text")
	preFile := flag.String("pre", "", "base global RIB (JSON route rows)")
	postFile := flag.String("post", "", "updated global RIB (JSON route rows)")
	parseOnly := flag.Bool("parse-only", false, "only parse and print the canonical form")
	flag.Parse()

	if *spec == "" {
		flag.Usage()
		os.Exit(2)
	}
	g, err := rcl.Parse(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("canonical: %s\nsize: %d internal nodes\n", rcl.String(g), g.Size())
	if *parseOnly {
		return
	}
	if *preFile == "" || *postFile == "" {
		fmt.Fprintln(os.Stderr, "rcl: -pre and -post RIB files required for checking")
		os.Exit(2)
	}
	base, err := loadRIB(*preFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	updated, err := loadRIB(*postFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, err := rcl.Check(g, base, updated)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if res.Holds {
		fmt.Println("intent HOLDS")
		return
	}
	fmt.Println("intent VIOLATED:")
	for _, v := range res.Violations {
		fmt.Printf("  %s\n", v)
		for _, r := range v.Routes {
			fmt.Printf("    route: %s\n", r)
		}
	}
	os.Exit(1)
}

func loadRIB(path string) (*netmodel.GlobalRIB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := core.DecodeRoutes(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// Result files are written in canonical order; only a foreign file
	// needs sorting.
	if slices.IsSortedFunc(rows, netmodel.CompareRoutes) {
		return netmodel.NewGlobalRIBFromSorted(rows), nil
	}
	return netmodel.NewGlobalRIB(rows), nil
}
