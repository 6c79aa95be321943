package main

import (
	"fmt"
	"io"
)

// layerMetrics are the per-layer figures of a traced run, in the order
// of BENCHMARK.json. Waits and counts come from the traced pass and self
// times from the ledger pass, except where a name says otherwise. A layer
// the workload does not run — mq on backfill, the durable layers on the
// open loops — is measured by the ledger on the same input instead.
func layerMetrics(untraced, tr *passResult, lg *ledger) []metric {
	self, count := tr.spans.selfNS()
	perSpan := func(name string) float64 {
		return float64(self[name]) / float64(max(count[name], 1))
	}
	bus := count[spPublish] > 0
	durable := tr.appends > 0
	pick := func(own bool, a, b float64) float64 {
		if own {
			return a
		}
		return b
	}
	// Sample counts: the traced run's, or the ledger's input size.
	nBus, nDur := int(count[spPublish]), tr.events
	if !bus {
		nBus = lg.events
	}
	if !durable {
		nDur = lg.events
	}
	route := tr.spans.durations(spRoute)
	if !bus {
		route = lg.busWait
	}
	wait50, nWait := route.pct(50)
	resident := tr.spans.durations(spQueue)
	res50, nRes := resident.pct(50)
	res99, _ := resident.pct(99)
	frame50, nFrame := tr.frameGaps.pct(50)
	lag50, nLag := tr.lag.pct(50)
	read99, nRead := tr.reads.pct(99)
	ev := float64(max(tr.events, 1))
	d := lg.durable
	cycles := float64(max(tr.cycles, 1))
	nCyc := tr.cycles // cycles behind the checkpoint and recovery figures
	if !durable {
		nCyc = 1
	}
	route50 := func(rt string) metric {
		v, n := tr.readRoute[rt].pct(50)
		return metric{"dashboard." + rt + "_p50_ms", "ms", v, n}
	}
	// The generator's lateness is a validity check on the end-to-end
	// figures, so it is the untraced pass's.
	late99, nLate := untraced.late.pct(99)
	uv, _ := untraced.visible.pct(50)
	tv, _ := tr.visible.pct(50)
	overhead := 0.0
	if uv > 0 {
		overhead = (tv - uv) / uv
	}
	return []metric{
		{"mq.publish_ns_per_event", "ns", pick(bus, perSpan(spPublish), lg.publishNS), nBus},
		{"mq.wait_p50_ms", "ms", wait50, nWait},
		{"mq.backlog_max", "count", tr.mqBacklog, 0},
		{"mq.dropped", "count", tr.mqDropped, 0},
		{"loader.events_per_batch", "count", tr.batchEvents / max(tr.batches, 1), int(tr.batches)},
		{"loader.batches", "count", tr.batches, 0},
		{"loader.flush_busy_frac", "frac", tr.flushNS / (shards * max(tr.windowNS, 1)), 0},
		{"loader.max_queue", "count", tr.maxQueue, 0},
		{"loader.resident_p50_ms", "ms", res50, nRes},
		{"loader.resident_p99_ms", "ms", res99, nRes},
		{"bp.parse_ns_per_event", "ns", lg.selfNS[spParse], lg.events},
		{"schema.validate_ns_per_event", "ns", lg.selfNS[spValidate], lg.events},
		{"archive.apply_ns_per_event", "ns", lg.selfNS[spApply], lg.events},
		{"archive.commit_ns_per_event", "ns", lg.selfNS[spCommit], lg.events},
		{"eventlog.append_ns_per_event", "ns", pick(durable, perSpan(spAppend), d.appendNS), nDur},
		{"eventlog.bytes_per_event", "B", pick(durable, tr.logBytes/max(tr.appends, 1), d.logBytes/d.appends), nDur},
		{"relstore.fsyncs_per_event", "count", pick(durable, tr.fsyncs/ev, d.fsyncs/d.events), nDur},
		{"relstore.bytes_per_event", "B", pick(durable, tr.storeBytes/ev, d.storeBytes/d.events), nDur},
		{"relstore.checkpoint_s", "s", pick(durable, tr.ckptSeconds/cycles, d.ckptSeconds), nCyc},
		{"relstore.checkpoint_bytes", "B", pick(durable, tr.ckptBytes/cycles, d.ckptBytes), nCyc},
		{"relstore.recover_s", "s", pick(durable, median(tr.recover), d.recover), nCyc},
		{"disk.bytes_per_event", "B", pick(durable, tr.diskBytesPerEvent(), (d.logBytes+d.storeBytes)/d.events), nDur},
		{"views.observe_ns_per_event", "ns", tr.viewNS / ev, tr.events},
		{"views.fanout_ns_per_event", "ns", lg.selfNS[spFanout], lg.events},
		{"views.dropped", "count", tr.viewsDropped, 0},
		{"views.resyncs", "count", tr.viewsResyncs, 0},
		{"sse.frame_interval_p50_ms", "ms", frame50, nFrame},
		{"sse.client_lag_p50_ms", "ms", lag50, nLag},
		{"sse.bytes_per_s", "B/s", tr.sseBytes / max(tr.windowNS/1e9, 1e-9), 0},
		route50("workflows"),
		route50("workflow"),
		route50("jobs"),
		route50("statistics"),
		route50("progress"),
		{"dashboard.read_p99_ms", "ms", read99, nRead},
		{"gc.cycles", "count", tr.gcCycles, 0},
		{"gc.pause_ms", "ms", tr.gcPauseMS, 0},
		{"gen.late_p99_ms", "ms", late99, nLate},
		{"ledger.layers_ns_per_event", "ns", lg.layersNS, lg.events},
		{"ledger.loader_ns_per_event", "ns", lg.loaderNS, lg.events},
		{"ledger.residual_ns_per_event", "ns", lg.loaderNS - lg.layersNS, lg.events},
		{"trace.overhead_frac", "frac", overhead, 0},
	}
}

// writeLayerTable prints the per-layer table: for each stage, the layer
// it belongs to, its self time per event, how many calls or spans that
// rests on, and the waits measured in the traced run; then the
// reconciliation row, the tracing overhead and the generator's lateness.
func writeLayerTable(w io.Writer, workload string, untraced, tr *passResult, lg *ledger) {
	self, count := tr.spans.selfNS()
	queue := tr.spans.durations(spQueue)
	q50, _ := queue.pct(50)
	q99, nq := queue.pct(99)
	ev := float64(max(tr.events, 1))
	fmt.Fprintf(w, "per-layer table, workload %s (self ns/event from the ledger pass over %d events unless noted)\n", workload, lg.events)
	fmt.Fprintf(w, "  %-9s %-16s %12s %10s %12s %12s  %s\n", "stage", "layer", "self_ns/ev", "count", "wait_p50_ms", "wait_p99_ms", "note")
	row := func(stage, layer string, ns float64, n int64, w50, w99 float64, note string) {
		fmt.Fprintf(w, "  %-9s %-16s %12.1f %10d %12.3f %12.3f  %s\n", stage, layer, ns, n, w50, w99, note)
	}
	if count[spPublish] > 0 {
		route := tr.spans.durations(spRoute)
		r50, _ := route.pct(50)
		r99, nr := route.pct(99)
		row("route", "mq", float64(self[spPublish])/float64(count[spPublish]), count[spPublish], r50, r99,
			fmt.Sprintf("traced run: publish call; wait = send → Tap over %d events", nr))
	} else {
		b50, _ := lg.busWait.pct(50)
		b99, nb := lg.busWait.pct(99)
		row("route", "mq", lg.publishNS, int64(nb), b50, b99, "ledger: Broker.Publish to one in-process consumer (not on this workload's path)")
	}
	row("parse", "bp", lg.selfNS[spParse], lg.count[spParse], 0, 0, "bp.ParseBytes")
	row("validate", "schema", lg.selfNS[spValidate], lg.count[spValidate], 0, 0, "(*schema.Validator).Validate")
	row("queue", "loader", 0, int64(tr.batches), q50, q99,
		fmt.Sprintf("traced run: resident = Tap → visible over %d events; %.1f events/batch", nq, tr.batchEvents/max(tr.batches, 1)))
	row("apply", "archive", lg.selfNS[spApply], lg.count[spApply], 0, 0, "(*archive.Archive).ApplyBatch")
	row("commit", "archive", lg.selfNS[spCommit], lg.count[spCommit], 0, 0, "(*archive.Archive).Flush, in memory")
	if count[spAppend] > 0 {
		row("commit", "eventlog", float64(self[spAppend])/float64(count[spAppend]), count[spAppend], 0, 0,
			"traced run: (*eventlog.Log).Append inside the Tap")
		row("commit", "relstore", 0, int64(tr.fsyncs), 0, 0,
			fmt.Sprintf("traced run: %.4f fsyncs/event, %.1f WAL+checkpoint B/event, recovery %.3fs", tr.fsyncs/ev, tr.storeBytes/ev, median(tr.recover)))
	} else {
		d := lg.durable
		row("commit", "eventlog", d.appendNS, int64(d.appends), 0, 0, "ledger: durable load of this input (not on this workload's path)")
		row("commit", "relstore", 0, int64(d.fsyncs), 0, 0,
			fmt.Sprintf("ledger: %.4f fsyncs/event, %.1f WAL+checkpoint B/event, recovery %.3fs", d.fsyncs/d.events, d.storeBytes/d.events, d.recover))
	}
	row("view", "views", lg.selfNS[spView], lg.count[spView], 0, 0,
		fmt.Sprintf("(*views.Views).ObserveBatch; traced run %.1f ns/event", tr.viewNS/ev))
	f50, _ := tr.frameGaps.pct(50)
	f99, _ := tr.frameGaps.pct(99)
	row("fan-out", "views/sse", lg.selfNS[spFanout], lg.count[spFanout], f50, f99,
		"(*views.Views).FlushNow with no subscribers; wait = SSE frame interval at the HTTP client")
	res := lg.loaderNS - lg.layersNS
	fmt.Fprintf(w, "  reconciliation: layers %.1f ns/event + residual %.1f ns/event (%.1f%%) = loader %.1f ns/event CPU (route, queues, batching, hand-offs)\n",
		lg.layersNS, res, 100*res/max(lg.loaderNS, 1), lg.loaderNS)
	uv, _ := untraced.visible.pct(50)
	tv, _ := tr.visible.pct(50)
	fmt.Fprintf(w, "  tracing overhead: visible p50 %.3f ms traced vs %.3f ms untraced; events/s %.0f traced vs %.0f untraced\n",
		tv, uv, median(tr.epsVals), median(untraced.epsVals))
	if late99, n := untraced.late.pct(99); n > 0 {
		tl99, _ := tr.late.pct(99)
		fmt.Fprintf(w, "  open-loop generator: late p99 %.3f ms untraced, %.3f ms traced, over %d sends\n", late99, tl99, n)
	}
}
