// Command sbbench is the repository benchmark: it runs one workload of
// the Static Bubble simulator for a fixed time, checks the simulator's
// outputs, and prints one JSON result line.
//
//	sbbench --workload fig9_saturation_8x8 --seed 1 --seconds 25 --trace 0
//
// --workload all runs every workload, each in its own child process.
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it alternates untraced and traced rounds and holds the per-layer
// metrics. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// processStart approximates process start: package variables are
// initialised before main runs, after the runtime has started.
var processStart = time.Now()

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("sbbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measured run length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "sbbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "sbbench: unknown workload %q (have %v, or all)\n", *name, workloadNames())
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbbench:", err)
		var v *violationError
		if !errors.As(err, &v) {
			return 1
		}
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "sbbench:", jerr)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one after the
// other, forwarding their output.
func runAll(seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbbench:", err)
		return 1
	}
	status := 0
	for _, n := range workloadNames() {
		fmt.Printf("# %s\n", n)
		cmd := exec.Command(self, "--workload", n, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "sbbench: %s: %v\n", n, err)
			status = 1
		}
	}
	return status
}
