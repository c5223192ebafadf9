// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                # run everything at full scale
//	experiments -scale 0.1     # 10x shorter runs
//	experiments -only figure6  # one experiment
//	experiments -format csv    # text (default), csv, markdown, or json
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cynthia/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args with its own FlagSet
// and returns the process exit code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale  = fs.Float64("scale", 1.0, "iteration-budget scale factor (1.0 = paper scale)")
		seed   = fs.Int64("seed", 1, "random seed")
		only   = fs.String("only", "", "run a single experiment id")
		list   = fs.Bool("list", false, "list experiment ids")
		format = fs.String("format", "text", "output format: text, csv, markdown, or json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	var (
		tables []*experiments.Table
		err    error
	)
	if *only != "" {
		tables, err = experiments.Run(*only, cfg)
	} else {
		tables, err = experiments.RunAll(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	if err := experiments.WriteAll(stdout, tables, *format); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}
