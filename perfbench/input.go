package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/synth"
)

// input is one workload's generated stream. The program under test only
// ever receives lines[i].Body; everything else here is the benchmark's
// own bookkeeping for matching what the program makes visible back to
// what was sent.
type input struct {
	lines []synth.Line
	// due[i] is line i's scheduled send offset from the start of the
	// open loop (unused by the closed-loop workload).
	due []time.Duration
	// wfs lists the workflow uuids in order of first appearance; last
	// maps each to the index of its final line.
	wfs   []string
	last  map[string]int
	first []bool // first[i]: line i is its workflow's first line

	indexOnce sync.Once
	index     map[string]int // line body → index; built on first use
}

// mixScenario is the mixed-tenant `steady` stream of
// examples/scenarios/steady.json (Pegasus DAGs, DART bundles and Triana
// pipelines, no faults) at rate events/s for the given length. The
// scenario is inlined so the benchmark's inputs cannot drift with the
// example file.
func mixScenario(seed int64, rate, seconds float64) *synth.Scenario {
	return &synth.Scenario{
		Name: "perfbench",
		Seed: seed,
		Tenants: []synth.Tenant{
			{Name: "cybershake", Engine: "pegasus", Weight: 3,
				Workflow: synth.Shape{Jobs: 24, Width: 6, TasksPerJob: 2}},
			{Name: "dart-render", Engine: "dart", Weight: 1,
				Workflow: synth.Shape{Jobs: 16, SubWorkflows: 4}},
			{Name: "triana-gw", Engine: "triana", Weight: 2},
		},
		Arrival: synth.Schedule{Phases: []synth.Phase{
			{Mode: "constant", Seconds: seconds, Rate: rate},
		}},
	}
}

// buildInput generates the stream for a scenario and schedules line i at
// i/rate seconds. The same seed always yields byte-identical lines
// (synth.BuildStream is deterministic).
func buildInput(sc *synth.Scenario, rate float64) (*input, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	st, err := synth.BuildStream(sc, 0)
	if err != nil {
		return nil, err
	}
	in := &input{
		lines: st.Lines,
		due:   make([]time.Duration, len(st.Lines)),
		last:  map[string]int{},
		first: make([]bool, len(st.Lines)),
	}
	for i := range st.Lines {
		ln := &st.Lines[i]
		if ln.Malformed || ln.Drop || ln.WF == "" {
			return nil, fmt.Errorf("line %d: the benchmark streams carry no faults", i)
		}
		// The plan piles the lines past its offered total onto its last
		// instant; a constant spacing keeps the open loop's rate exact.
		in.due[i] = time.Duration(float64(i) / rate * float64(time.Second))
		if _, ok := in.last[ln.WF]; !ok {
			in.wfs = append(in.wfs, ln.WF)
			in.first[i] = true
		}
		in.last[ln.WF] = i
	}
	return in, nil
}

// joined renders the stream as one newline-separated BP log, the form the
// closed-loop workload reads it in.
func (in *input) joined() []byte {
	var b bytes.Buffer
	for i := range in.lines {
		b.Write(in.lines[i].Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// indexOf returns the index of the stream line with this body, or -1.
// Only a bus that loses or alters lines makes it necessary, so the index
// is built on first use.
func (in *input) indexOf(body []byte) int {
	in.indexOnce.Do(func() {
		in.index = make(map[string]int, len(in.lines))
		for i := len(in.lines) - 1; i >= 0; i-- {
			in.index[string(in.lines[i].Body)] = i
		}
	})
	if i, ok := in.index[string(body)]; ok {
		return i
	}
	return -1
}

// newMatcher returns a matcher over the input's lines.
func (in *input) newMatcher() *matcher {
	return newMatcher(func(i int) string { return in.lines[i].WF }, func(i int) string { return in.lines[i].Key }, len(in.lines))
}
