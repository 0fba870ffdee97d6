// Command gengraph writes synthetic scale-free graphs to disk, either from
// the named dataset presets or from explicit generator parameters.
//
// Usage:
//
//	gengraph -dataset twitter-sim -scale 1.0 -o twitter-sim.bg
//	gengraph -n 100000 -degree 30 -skew 0.75 -o custom.el
//
// The two modes take disjoint flags: a custom-graph flag beside -dataset,
// or -scale without it, is a usage error rather than silently ignored.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bpart"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		datasetID = fs.String("dataset", "", "preset dataset: lj-sim, twitter-sim, friendster-sim")
		scale     = fs.Float64("scale", 1.0, "preset scale")
		n         = fs.Int("n", 0, "custom: number of vertices")
		degree    = fs.Float64("degree", 16, "custom: average out-degree")
		skew      = fs.Float64("skew", 0.75, "custom: rank exponent in (0,1)")
		locality  = fs.Float64("locality", 0.2, "custom: ID-window edge fraction")
		community = fs.Float64("community", 0.4, "custom: community edge fraction")
		seed      = fs.Uint64("seed", 1, "custom: RNG seed")
		out       = fs.String("o", "", "output path (.bg binary, else edge-list text)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A flag of the mode not selected would be silently ignored.
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "n", "degree", "skew", "locality", "community", "seed":
			if *datasetID != "" {
				ignored = append(ignored, "-"+f.Name)
			}
		case "scale":
			if *datasetID == "" {
				ignored = append(ignored, "-scale")
			}
		}
	})
	if len(ignored) > 0 {
		if *datasetID != "" {
			fmt.Fprintf(stderr, "gengraph: -dataset does not honour %s (custom-graph flags)\n", strings.Join(ignored, ", "))
		} else {
			fmt.Fprintln(stderr, "gengraph: -scale applies to -dataset only")
		}
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "gengraph: -o is required")
		return 1
	}
	var (
		g   *bpart.Graph
		err error
	)
	switch {
	case *datasetID != "":
		g, err = bpart.Preset(bpart.Dataset(*datasetID), *scale)
	case *n > 0:
		g, err = bpart.Generate(bpart.GenConfig{
			NumVertices:   *n,
			AvgDegree:     *degree,
			Skew:          *skew,
			Locality:      *locality,
			CommunityProb: *community,
			Seed:          *seed,
		})
	default:
		err = fmt.Errorf("need -dataset or -n")
	}
	if err == nil {
		err = bpart.WriteGraphFile(*out, g)
	}
	if err != nil {
		fmt.Fprintln(stderr, "gengraph:", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %v to %s (%v)\n", g, *out, bpart.Stats(g))
	return 0
}
