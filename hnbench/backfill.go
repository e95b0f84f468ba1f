package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"honeynet/internal/fleet"
	"honeynet/internal/live"
	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/store"
)

// backfillNode is the edge's node id; its shard on the collector is
// node-edge-1.
const backfillNode = "edge-1"

// backfillRound is one backlog caught up: a fresh edge store
// (store.Open defaults) with a fleet.Forwarder (default options) and a
// fresh collector built the way cmd/hncollect builds it.
type backfillRound struct {
	setup                      time.Duration
	total                      time.Duration // first Append until both sides are closed
	appendT                    time.Duration // the Append loop alone
	catchup                    time.Duration // last Append until the collector has every record
	ready                      time.Duration // first Append until the collector has every record
	storeC                     time.Duration // edge store Close (seal)
	collC                      time.Duration // collector Close (seal)
	latency                    []float64     // per record: Append -> collector commit, ms
	obsUs                      []float64     // live.Observe durations (traced run only)
	edgeCounters, collCounters map[string]float64
	bytes                      int64
	snap                       *live.Snapshot // the collector's live state once caught up
}

func runBackfill(o *options, rep *report) error {
	recs, err := generate(o.seed, o.scale)
	if err != nil {
		return err
	}
	for i, r := range recs {
		if r.ID != uint64(i+1) {
			return fmt.Errorf("generated record %d has id %d; ids must be dense", i, r.ID)
		}
	}
	tr := newTracer(o.trace)
	var rounds []*backfillRound
	var peaks []float64
	budget := time.Duration(o.seconds * float64(time.Second))
	var spent time.Duration
	cpu0 := cpuTime()
	// Whole rounds until the measured time is used; at least three, so
	// set-up has a median.
	for i := 0; spent < budget || i < 3; i++ {
		dir := filepath.Join(o.work, fmt.Sprintf("round%d", i))
		runtime.GC()
		heap := startHeapSampler(5 * time.Millisecond)
		rd, err := runBackfillRound(dir, recs, tr, int64(i))
		peaks = append(peaks, heap.end())
		if err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		spent += rd.total
		rounds = append(rounds, rd)
		// Checks, untimed: the collector shard holds exactly the appended
		// records in order without gaps; live equals batch.
		shard, liveErr, err := checkBackfillShard(dir, recs, rd)
		if err != nil {
			return err
		}
		for _, e := range shard {
			rep.op(e)
		}
		rep.op(liveErr)
		// Drop the round's files now, so their writeback does not load
		// the disk under later rounds.
		os.RemoveAll(dir)
	}
	cpu := cpuTime() - cpu0

	var setupS, readyMs, rates, p50s, lat, obsUs []float64
	var catch, storeC, collC []float64
	var appendTotal time.Duration
	edgeSum, collSum := map[string]float64{}, map[string]float64{}
	var bytes int64
	for _, rd := range rounds {
		setupS = append(setupS, rd.setup.Seconds())
		readyMs = append(readyMs, float64(rd.ready)/1e6)
		rates = append(rates, float64(len(recs))/rd.total.Seconds())
		p50s = append(p50s, quantile(rd.latency, 0.5))
		lat = append(lat, rd.latency...)
		obsUs = append(obsUs, rd.obsUs...)
		catch = append(catch, rd.catchup.Seconds())
		storeC = append(storeC, rd.storeC.Seconds())
		collC = append(collC, rd.collC.Seconds())
		appendTotal += rd.appendT
		addInto(edgeSum, rd.edgeCounters)
		addInto(collSum, rd.collCounters)
		bytes += rd.bytes
	}
	n := float64(len(recs) * len(rounds))
	// Each round is one sample; see steadyTime for which one counts.
	rep.e2e("setup_s", "s", steadyTime(setupS))
	rep.e2e("throughput_per_s", "1/s", steadyRate(rates))
	rep.e2e("latency_ms", "ms", steadyTime(p50s))
	rep.e2e("ready_ms", "ms", steadyTime(readyMs))
	rep.e2e("peak_heap_mb", "MiB", median(peaks))
	rep.info("rounds", "count", float64(len(rounds)))
	rep.info("records_per_round", "count", float64(len(recs)))
	rep.info("backfill_recs_per_s", "1/s", n/spent.Seconds())
	rep.info("record_p99_ms", "ms", quantile(lat, 0.99))

	if o.trace {
		rep.layer("store.append_us", "us", float64(appendTotal)/1e3/n)
		rep.layer("fleet.catchup_s", "s", median(catch))
		rep.layer("store.close_s", "s", median(storeC))
		rep.layer("collector.close_s", "s", median(collC))
		rep.layer("store.bytes_per_record", "B", float64(bytes)/n)
		rep.layer("process.cpu_us_per_record", "us", float64(cpu)/1e3/n)
		rep.layer("live.observe_us_p50", "us", quantile(obsUs, 0.5))
		rep.layer("live.observe_us_p99", "us", quantile(obsUs, 0.99))
		ingestCounters(rep, edgeSum, collSum, n)
		if err := writeTrace(o, tr, rep); err != nil {
			return err
		}
	}
	return nil
}

// runBackfillRound appends recs at full speed to a fresh edge store
// while its forwarder streams them to a fresh collector, and returns
// once the collector holds every record and both sides are closed.
func runBackfillRound(dir string, recs []*session.Record, tr *tracer, round int64) (*backfillRound, error) {
	rd := &backfillRound{latency: make([]float64, 0, len(recs))}
	root := tr.begin("backfill.round", 0, round)
	defer root.end()
	edgeDir, collDir := filepath.Join(dir, "edge"), filepath.Join(dir, "collector")
	commit := make([]atomic.Int64, len(recs)) // ns from epoch
	var collected atomic.Int64
	all := make(chan struct{}) // closed when the collector holds every record
	epoch := time.Now()

	t := time.Now()
	sp := tr.begin("setup", root.id, round)
	livep := live.NewPipeline(live.Options{})
	var obsMu sync.Mutex
	coll, err := fleet.NewServer(collDir, fleet.ServerOptions{
		SyncAck: true,
		OnRecord: func(_ string, r *session.Record) {
			if tr.on {
				t0 := time.Now()
				livep.Observe(r)
				d := time.Since(t0)
				obsMu.Lock()
				rd.obsUs = append(rd.obsUs, float64(d)/float64(time.Microsecond))
				obsMu.Unlock()
			} else {
				livep.Observe(r)
			}
			if i := int(r.ID) - 1; i >= 0 && i < len(commit) {
				commit[i].CompareAndSwap(0, int64(time.Since(epoch)))
			}
			if collected.Add(1) == int64(len(recs)) {
				close(all)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	addr, err := coll.Listen("127.0.0.1:0")
	if err != nil {
		coll.Close()
		return nil, err
	}
	collReg := obs.NewRegistry()
	coll.Register(collReg)
	livep.Register(collReg)
	st, err := store.Open(edgeDir, store.Options{})
	if err != nil {
		coll.Close()
		return nil, err
	}
	fwd, err := fleet.NewForwarder(addr.String(), backfillNode, st, fleet.Options{})
	if err != nil {
		st.Close()
		coll.Close()
		return nil, err
	}
	edgeReg := obs.NewRegistry()
	st.Register(edgeReg)
	fwd.Register(edgeReg)
	sp.end()
	rd.setup = time.Since(t)

	appended := make([]int64, len(recs))
	t0 := time.Now()
	sp = tr.begin("store.append", root.id, round)
	for i, r := range recs {
		appended[i] = int64(time.Since(epoch))
		if err := st.Append(r); err != nil {
			fwd.Close()
			st.Close()
			coll.Close()
			return nil, err
		}
	}
	sp.end()
	t1 := time.Now()
	rd.appendT = t1.Sub(t0)
	sp = tr.begin("fleet.catchup", root.id, round)
	select {
	case <-all:
	case <-time.After(60 * time.Second):
	}
	sp.end()
	t2 := time.Now()
	rd.catchup = t2.Sub(t1)
	rd.ready = t2.Sub(t0)
	rd.snap = livep.Snapshot()
	sp = tr.begin("fleet.forwarder_close", root.id, round)
	err = fwd.Close()
	sp.end()
	sp = tr.begin("store.close", root.id, round)
	t3 := time.Now()
	err = errors.Join(err, st.Close())
	rd.storeC = time.Since(t3)
	sp.end()
	sp = tr.begin("collector.close", root.id, round)
	t3 = time.Now()
	err = errors.Join(err, coll.Close())
	rd.collC = time.Since(t3)
	sp.end()
	rd.total = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if got := collected.Load(); got != int64(len(recs)) {
		return nil, fmt.Errorf("collector committed %d of %d records within 60s", got, len(recs))
	}
	for i := range recs {
		if c := commit[i].Load(); c > 0 {
			rd.latency = append(rd.latency, float64(c-appended[i])/1e6)
		}
	}
	rd.edgeCounters, rd.collCounters = edgeReg.Snapshot(), collReg.Snapshot()
	rd.bytes = dirBytes(edgeDir)
	return rd, nil
}

// checkBackfillShard reads the collector's shard in sequence order and
// checks it holds exactly recs, in order and without gaps (one
// operation per record), then compares the live categories with batch
// classification of the collected records.
func checkBackfillShard(dir string, recs []*session.Record, rd *backfillRound) (perRecord []error, liveErr error, err error) {
	collDir := filepath.Join(dir, "collector")
	sh, err := store.Open(store.ShardDir(collDir, backfillNode), store.Options{ReadOnly: true})
	if err != nil {
		return nil, nil, err
	}
	bySeq := make([]*session.Record, 0, len(recs))
	cur := sh.ScanSeq(0)
	var gaps []string
	for cur.Next() {
		if cur.Seq() != uint64(len(bySeq)) && len(gaps) < 5 {
			gaps = append(gaps, fmt.Sprintf("seq %d at position %d", cur.Seq(), len(bySeq)))
		}
		var r session.Record
		if err := session.DecodeJSON(cur.Line(), &r); err != nil {
			cur.Close()
			sh.Close()
			return nil, nil, err
		}
		bySeq = append(bySeq, &r)
	}
	cerr := cur.Err()
	cur.Close()
	sh.Close()
	if cerr != nil {
		return nil, nil, cerr
	}
	perRecord = make([]error, len(recs))
	for i, want := range recs {
		switch {
		case i >= len(bySeq):
			perRecord[i] = fmt.Errorf("record %d missing from the collector shard", i)
		default:
			if d := sameRecord(bySeq[i], want); d != "" {
				perRecord[i] = fmt.Errorf("record %d: collector shard differs in %s", i, d)
			}
		}
	}
	if len(bySeq) > len(recs) {
		perRecord = append(perRecord, fmt.Errorf("collector shard holds %d records, %d appended", len(bySeq), len(recs)))
	}
	if len(gaps) > 0 {
		perRecord = append(perRecord, fmt.Errorf("collector shard sequence gaps: %v", gaps))
	}
	return perRecord, checkLive(rd.snap, bySeq), nil
}
