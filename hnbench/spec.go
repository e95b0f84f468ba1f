package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
)

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// spec is BENCHMARK.json: the command, the benchmark's directories, the
// run length, the workloads and every metric. --write-spec writes it
// from these tables, so the file and the code cannot drift apart.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

var benchSpec = spec{
	Command:    []string{"bash", "hnbench/run.sh"},
	Paths:      []string{"hnbench"},
	RunSeconds: 25,
	Workloads: []specWorkload{
		{"attack", "every session replayed over real SSH/Telnet on loopback into a honeypotd-default edge forwarding to a collector: the path each attacker takes"},
		{"backfill", "a backlog appended at full speed to an edge store while its forwarder catches the collector up: the write path with no SSH"},
		{"analyst", "the README's ten paper statements and the whole figure pipeline over a sealed fleet directory: the read path with no writes"},
	},
	EndToEnd: []specMetric{
		{"setup_s", "s", "lower", 0.25},
		{"throughput_per_s", "1/s", "higher", 0.25},
		{"latency_ms", "ms", "lower", 0.25},
		{"ready_ms", "ms", "lower", 0.25},
		{"peak_heap_mb", "MiB", "lower", 0.25},
	},
	PerLayer: layerSpec(),
}

func layerSpec() []specMetric {
	lower := func(name, unit string) specMetric { return specMetric{Name: name, Unit: unit, Better: "lower"} }
	higher := func(name, unit string) specMetric { return specMetric{Name: name, Unit: unit, Better: "higher"} }
	out := []specMetric{
		// attack: the front door.
		lower("sshwire.handshake_ms", "ms"),
		lower("sshd.auth_ms", "ms"),
		lower("shell.command_ms", "ms"),
		lower("telnetd.session_ms", "ms"),
		lower("process.cpu_us_per_session", "us"),
		lower("honeypot.record_ms", "ms"),
		lower("fleet.forward_ms", "ms"),
		// attack and backfill: the ingest path behind it.
		lower("live.observe_us_p50", "us"),
		lower("live.observe_us_p99", "us"),
		lower("store.append_us", "us"),
		lower("process.cpu_us_per_record", "us"),
		lower("fleet.catchup_s", "s"),
		lower("store.close_s", "s"),
		lower("collector.close_s", "s"),
		lower("store.bytes_per_record", "B"),
		lower("store.wal_batches_per_1k", "count"),
		higher("store.records_per_batch", "count"),
		lower("store.seals_per_1k", "count"),
		lower("store.seal_blocks_per_1k", "count"),
		lower("fleet.forward_batches_per_1k", "count"),
		lower("fleet.flushes_per_1k", "count"),
		lower("fleet.acks_per_1k", "count"),
		lower("live.rule_candidates_per_1k", "count"),
		higher("live.rules_skipped_per_1k", "count"),
		higher("live.assign_pruned_per_1k", "count"),
		lower("live.assign_kernel_per_1k", "count"),
		// analyst: the read path.
		lower("setup.seal_s", "s"),
		higher("store.stream_recs_per_s", "1/s"),
		lower("core.build_s", "s"),
		lower("analysis.classify_s", "s"),
		lower("analysis.dld_matrix_s", "s"),
		lower("analysis.kmedoids_s", "s"),
		lower("analysis.figures_sum_s", "s"),
	}
	for _, class := range []string{"meta", "point", "scan"} {
		out = append(out,
			lower("store.open_ms."+class, "ms"),
			lower("query.compile_us."+class, "us"),
			lower("store.execute_ms."+class, "ms"),
			lower("query.blocks_read."+class, "count"),
			lower("query.decoded_per_matched."+class, "count"),
			higher("query.segments_pruned."+class, "count"),
			higher("query.bloom_pruned."+class, "count"),
		)
	}
	return out
}

// writeSpec writes BENCHMARK.json.
func writeSpec(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchSpec); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// shape restricts a run's metrics to the declared set. A declared
// per-layer metric of a layer the workload never calls reads 0; a
// declared end-to-end metric a workload failed to measure is an error.
func shape(got map[string]metric, declared []specMetric, fillZero bool) (map[string]metric, []string) {
	out := map[string]metric{}
	var missing []string
	for _, m := range declared {
		v, ok := got[m.Name]
		ok = ok && !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0)
		switch {
		case ok:
			out[m.Name] = v
		case fillZero:
			out[m.Name] = metric{0, m.Unit}
		default:
			missing = append(missing, m.Name)
		}
	}
	return out, missing
}
