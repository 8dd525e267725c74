// Command clomptm regenerates Figure 1: the CLOMP-TM characterization of
// Intel TSX against atomics and lock-based critical sections, optionally
// with cross-partition conflict wiring. It shares the experiment engine's
// flags: -parallel, -chaos, -cache (see internal/runopts); sweeps at the
// default configuration reuse Figure 1's cached cells.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tsxhpc/internal/clomp"
	"tsxhpc/internal/runopts"
)

func main() {
	var o runopts.Options
	runopts.Register(flag.CommandLine, &o)
	threads := flag.Int("threads", 4, "thread count (Figure 1 uses 4, Hyper-Threading off)")
	scatters := flag.String("scatters", "1,2,3,4,6,8,12,16", "comma-separated scatter counts (X axis)")
	cross := flag.Int("cross", 0, "percent of scatter targets wired cross-partition (conflict knob)")
	zones := flag.Int("zones", 0, "zones per partition (0 = default)")
	flag.Parse()
	o.Finish(flag.CommandLine)

	xs, err := parseScatters(*scatters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clomptm:", err)
		os.Exit(2)
	}
	cfg := clomp.DefaultConfig()
	cfg.CrossPartitionPct = *cross
	if *zones > 0 {
		cfg.ZonesPerPartition = *zones
	}

	suite, _, cleanup := o.Setup(os.Stderr)
	defer cleanup()
	o.Banner(os.Stdout)

	fig, err := suite.ClompSweep(cfg, xs, *threads)
	if err != nil {
		runopts.ReportSupervision(os.Stderr, suite.E)
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(fig.Render())
	runopts.ReportSupervision(os.Stderr, suite.E)
	if err := o.WriteObservability("clomptm", os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseScatters parses the -scatters list: comma-separated positive
// integers, with whitespace around each allowed.
func parseScatters(list string) ([]int, error) {
	var xs []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-scatters: bad scatter count %q (want a positive integer)", f)
		}
		xs = append(xs, n)
	}
	return xs, nil
}
