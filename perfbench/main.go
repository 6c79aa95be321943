// Command perfbench is the repository's end-to-end benchmark. It drives
// the real stack from the outside — mq (TCP server and in-process
// broker) → loader → archive/relstore (in memory, or durable with the
// event-log tap) → views → dashboard HTTP/SSE — on one of three
// workloads, checks the program's outputs, and prints every metric by
// name with its unit and sample count. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -workload live|backfill|dashboard-mix -seed N -seconds S -trace 0|1 [-workdir DIR]
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is made untraced and then traced, a ledger pass times each layer
// on the same input, and the metrics are the per-layer ones. README.md
// explains the workloads, the metrics and what each layer should move.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The workloads. Rates are events per second of the open loops.
const (
	liveRate       = 20000
	dashRate       = 10000
	dashSubs       = 2000
	backfillRate   = 20000 // sets only how the backfill inputs interleave
	backfillSecs   = 2.5   // each backfill input: backfillRate × backfillSecs events
	backfillInputs = 4     // distinct inputs, loaded in turn, one per cycle
	probeReads     = 100   // reads/s of the one dashboard user on live and backfill
	dashReads      = 1000  // reads/s of the dashboard-mix reader
)

func main() {
	workload := flag.String("workload", "", "live, backfill or dashboard-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time per pass")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for durable stores and span dumps")
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *traceFlag == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("correctness checks failed")

func run(w io.Writer, workload string, seed int64, seconds float64, traced bool, workdir string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	dir := filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	pass, in, err := prepare(workload, seed, seconds, dir)
	if err != nil {
		return err
	}
	untraced, err := pass(false)
	if err != nil {
		return err
	}
	if !traced {
		human := append(untraced.endToEnd(), untraced.extra()...)
		if err := report(w, workload, seed, untraced, human, untraced.endToEnd()); err != nil {
			return err
		}
		if !untraced.correct() {
			return errIncorrect
		}
		return nil
	}

	tr, err := pass(true)
	if err != nil {
		return err
	}
	lg, err := ledgerPass(in, median(untraced.epsVals))
	if err != nil {
		return err
	}
	if lg.loaderNS, err = loaderCPU(in); err != nil {
		return err
	}
	if lg.publishNS, lg.busWait, err = busLedger(in); err != nil {
		return err
	}
	if lg.durable, err = durableLedger(in, filepath.Join(dir, "ledger")); err != nil {
		return err
	}
	tdir := filepath.Join(workdir, "trace")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	// One dump per workload, replaced by its next traced run: the
	// event spans of a run take a few hundred MB.
	base := filepath.Join(tdir, workload)
	if err := tr.spans.dump(base + "-run.tsv"); err != nil {
		return err
	}
	if err := lg.spans.dump(base + "-ledger.tsv"); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans of seed %d written to %s-run.tsv and %s-ledger.tsv\n", seed, base, base)
	layers := layerMetrics(untraced, tr, lg)
	writeLayerTable(w, workload, untraced, tr, lg)
	// Accounting and failures cover both passes.
	tr.attempted += untraced.attempted
	tr.failed += untraced.failed
	tr.problems = append(untraced.problems, tr.problems...)
	if err := report(w, workload, seed, tr, layers, layers); err != nil {
		return err
	}
	if !tr.correct() {
		return errIncorrect
	}
	return nil
}

// prepare builds the workload's inputs and returns a function that makes
// one pass over them, and the input the ledger pass reuses.
func prepare(workload string, seed int64, seconds float64, dir string) (func(bool) (*passResult, error), *input, error) {
	switch workload {
	case "live", "dashboard-mix":
		cfg := olConfig{rate: liveRate, tcp: true, readRate: probeReads}
		if workload == "dashboard-mix" {
			cfg = olConfig{rate: dashRate, subscribers: dashSubs, httpReader: true, readRate: dashReads}
		}
		// The ledger pass reuses the first segment's input.
		_, each := segments(seconds)
		in, err := segmentInput(seed, 0, cfg.rate, each)
		if err != nil {
			return nil, nil, err
		}
		return func(traced bool) (*passResult, error) {
			return runOpenLoop(cfg, seed, seconds, traced)
		}, in, nil
	case "backfill":
		b := &backfill{workdir: dir, readRate: probeReads}
		for k := 0; k < backfillInputs; k++ {
			in, err := segmentInput(seed, k, backfillRate, backfillSecs)
			if err != nil {
				return nil, nil, err
			}
			bi, err := newBFInput(in)
			if err != nil {
				return nil, nil, err
			}
			b.inputs = append(b.inputs, bi)
		}
		return func(traced bool) (*passResult, error) {
			return b.run(traced, seconds)
		}, b.inputs[0].in, nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want live, backfill or dashboard-mix)", workload)
}
