// Command benchjson turns `go test -bench` output into a committed JSON
// baseline and compares runs against it, benchstat-style — the repo's
// perf-trajectory harness (make bench-json / make bench-check).
//
// Usage:
//
//	go test -bench . -benchmem ./internal/flow | benchjson parse -out BENCH_flow.json
//	benchjson compare -baseline BENCH_flow.json -current .bench_current.json \
//	    -threshold 10 -min-speedup 2
//
// Each JSON file records the CPU and GOMAXPROCS it was captured at. The
// compare gates split by whether they survive a hardware change:
//
//   - allocs/op must not increase versus the baseline (machine-independent)
//   - every <name>/incremental sub-benchmark must beat its
//     <name>/reference sibling by at least -min-speedup within the
//     current run (same machine, same load)
//   - only when baseline and current share the CPU string and GOMAXPROCS:
//     ns/op must not regress by more than -threshold percent (the
//     incremental/reference ratio where both runs carry the /reference
//     sibling, raw ns/op otherwise, at 3x the threshold), and iters/s must
//     not fall by more than 3x the threshold. On different hardware these
//     gates are skipped with a loud "hardware differs" line.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "parse":
		err = runParse(os.Args[2:], os.Stdin, os.Stdout)
	case "compare":
		err = runCompare(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
		return
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func usage() {
	io.WriteString(os.Stderr, `usage:
  benchjson parse   [-out FILE]                read "go test -bench" output on stdin, emit JSON
  benchjson compare -baseline FILE -current FILE [-threshold PCT] [-min-speedup X]
`)
}
