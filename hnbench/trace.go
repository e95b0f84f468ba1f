package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tracer keeps the traced run's spans in memory: one span around each
// call the benchmark makes into a layer, with its parent and the
// session (or round, or statement) it belongs to. A nil tracer, or one
// that is off, records nothing and costs one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span; times are offsets from the epoch.
type spanRec struct {
	ID      int64         `json:"id"`
	Parent  int64         `json:"parent,omitempty"`
	Session int64         `json:"session"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

// span is an open span; the zero span (tracing off) ignores end.
type span struct {
	t     *tracer
	id    int64
	rec   spanRec
	start time.Time
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span named name under parent (0 for a root span).
func (t *tracer) begin(name string, parent, session int64) span {
	if t == nil || !t.on {
		return span{}
	}
	id := t.ids.Add(1)
	now := time.Now()
	return span{t: t, id: id, start: now, rec: spanRec{
		ID: id, Parent: parent, Session: session, Name: name, Start: now.Sub(t.epoch),
	}}
}

// end closes the span and returns its duration (0 when tracing is off).
func (s span) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := time.Now()
	s.rec.End = now.Sub(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
	return now.Sub(s.start)
}

// add records a span whose ends were observed elsewhere (for example
// client close on one goroutine, the edge's OnRecord on another).
func (t *tracer) add(name string, parent, session int64, start, end time.Time) {
	if t == nil || !t.on {
		return
	}
	rec := spanRec{ID: t.ids.Add(1), Parent: parent, Session: session, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// durations returns every recorded duration of the named span.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfStat is one span name's totals.
type selfStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes, per span name, the total duration and the self
// time: each span's duration minus the part of its interval that its
// children cover (overlapping children counted once).
func (t *tracer) selfTimes() map[string]selfStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]spanRec{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfStat{}
	for _, s := range t.spans {
		covered := time.Duration(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var curS, curE time.Duration
		open := false
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			switch {
			case !open:
				curS, curE, open = ks, ke, true
			case ks > curE:
				covered += curE - curS
				curS, curE = ks, ke
			case ke > curE:
				curE = ke
			}
		}
		if open {
			covered += curE - curS
		}
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-covered) / 1e6
		out[s.Name] = st
	}
	return out
}

// write saves the spans (one JSON object per line) and the self-time
// summary under dir, named for the workload and seed. It returns the
// span log's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(t.selfTimes(), "", "  ")
	if err != nil {
		return "", err
	}
	return base + ".spans.jsonl", os.WriteFile(base+".self.json", append(b, '\n'), 0o644)
}

// heapSampler tracks the peak Go heap in use (live and not yet swept
// objects) while it runs, reading runtime/metrics without stopping the
// world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: heapMetric}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tk.C:
				read()
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MiB.
func (h *heapSampler) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ingestCounters reports an ingest phase's registry series per 1000
// records: the edge store's and forwarder's, the collector's fleet and
// live series. edge and coll hold each series summed over the phase's
// fresh registries.
func ingestCounters(rep *report, edge, coll map[string]float64, records float64) {
	per1k := func(m map[string]float64, name string) float64 { return m[name] * 1000 / max(records, 1) }
	batches := edge["honeynet_store_batch_flushes_total"]
	rep.layer("store.wal_batches_per_1k", "count", per1k(edge, "honeynet_store_batch_flushes_total"))
	rep.layer("store.records_per_batch", "count", edge["honeynet_store_batch_records_total"]/max(batches, 1))
	rep.layer("store.seals_per_1k", "count", per1k(edge, "honeynet_store_seals_total"))
	rep.layer("store.seal_blocks_per_1k", "count", per1k(edge, "honeynet_store_seal_blocks_total"))
	rep.layer("fleet.forward_batches_per_1k", "count", per1k(edge, "honeynet_fleet_forward_batches_total"))
	rep.layer("fleet.flushes_per_1k", "count", per1k(edge, "honeynet_fleet_forward_flushes_total"))
	rep.layer("fleet.acks_per_1k", "count", per1k(coll, "honeynet_fleet_acks_sent_total"))
	rep.layer("live.rule_candidates_per_1k", "count", per1k(coll, "honeynet_live_rule_candidates_total"))
	rep.layer("live.rules_skipped_per_1k", "count", per1k(coll, "honeynet_live_rules_skipped_total"))
	rep.layer("live.assign_pruned_per_1k", "count", per1k(coll, "honeynet_live_assign_pruned_total"))
	rep.layer("live.assign_kernel_per_1k", "count", per1k(coll, "honeynet_live_assign_kernel_total"))
}

// addInto adds every series of snap into sum.
func addInto(sum, snap map[string]float64) {
	for k, v := range snap {
		sum[k] += v
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// writeTrace saves the span log and reports where.
func writeTrace(o *options, tr *tracer, rep *report) error {
	path, err := tr.write(o.traceDir, o.workload, o.seed)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	rep.info("trace.spans", "count", float64(len(tr.spans)))
	fmt.Fprintf(os.Stderr, "hnbench: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
