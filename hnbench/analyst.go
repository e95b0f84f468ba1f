package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"honeynet"
	"honeynet/internal/analysis"
	"honeynet/internal/core"
	"honeynet/internal/obs"
	"honeynet/internal/query"
	"honeynet/internal/session"
	"honeynet/internal/store"
)

// analystShards is how many node shards the fleet directory holds.
const analystShards = 4

// analystSetups is how many times set-up writes and seals the fleet
// directory; setup_s is the best tenth of them.
const analystSetups = 9

// analystDossiers is how many ip = dossiers a statement round asks,
// one of them about an absent address.
const analystDossiers = 4

// analystCluster is the section 6 clustering configuration of every
// figure pass: the defaults hnanalyze runs with (K 90, a 2000-text
// sample).
var analystCluster = analysis.ClusterConfig{}

// statement is one of the README's ten paper-mapped statements with the
// same aggregate computed directly over the in-memory records.
type statement struct {
	class string // "meta", "point" or "scan"
	text  string
	// ordered: the statement fixes its row order (ORDER BY); otherwise
	// rows compare as a multiset.
	ordered bool
	// limit: want returns every matching row and the statement keeps
	// any limit of them (LIMIT without ORDER BY).
	limit int
	want  func(canon []*session.Record) [][]string
}

// shardOf assigns a record to a node shard by its honeypot id.
func shardOf(r *session.Record) string {
	n := 0
	for i := 0; i < len(r.HoneypotID); i++ {
		n = n*31 + int(r.HoneypotID[i])
	}
	if n < 0 {
		n = -n
	}
	return fmt.Sprintf("n%d", n%analystShards)
}

// writeFleetDir writes recs as a fleet directory of node shards with
// default store options and seals every shard. It returns how long the
// shard closes (seals) took; counters, when non-nil, accumulates every
// shard's registry series.
func writeFleetDir(dir string, recs []*session.Record, counters map[string]float64) (time.Duration, error) {
	if err := store.WriteFleetMarker(dir); err != nil {
		return 0, err
	}
	byShard := map[string][]*session.Record{}
	for _, r := range recs {
		byShard[shardOf(r)] = append(byShard[shardOf(r)], r)
	}
	nodes := make([]string, 0, len(byShard))
	for n := range byShard {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	var seal time.Duration
	for _, node := range nodes {
		st, err := store.Open(store.ShardDir(dir, node), store.Options{})
		if err != nil {
			return 0, err
		}
		reg := obs.NewRegistry()
		st.Register(reg)
		for _, r := range byShard[node] {
			if err := st.Append(r); err != nil {
				st.Close()
				return 0, err
			}
		}
		t := time.Now()
		if err := st.Close(); err != nil {
			return 0, err
		}
		seal += time.Since(t)
		if counters != nil {
			for k, v := range reg.Snapshot() {
				counters[k] += v
			}
		}
	}
	return seal, nil
}

// canonical orders recs the way a fleet directory streams them:
// (Start, node, append order within the node).
func canonical(recs []*session.Record) []*session.Record {
	type ent struct {
		r    *session.Record
		node string
		seq  int
	}
	seq := map[string]int{}
	ents := make([]ent, len(recs))
	for i, r := range recs {
		n := shardOf(r)
		ents[i] = ent{r, n, seq[n]}
		seq[n]++
	}
	sort.Slice(ents, func(i, j int) bool {
		a, b := ents[i], ents[j]
		switch {
		case !a.r.Start.Equal(b.r.Start):
			return a.r.Start.Before(b.r.Start)
		case a.node != b.node:
			return a.node < b.node
		}
		return a.seq < b.seq
	})
	out := make([]*session.Record, len(ents))
	for i, e := range ents {
		out[i] = e.r
	}
	return out
}

func month(r *session.Record) string { return r.Start.UTC().Format("2006-01") }

func itoa(n int) string { return strconv.Itoa(n) }

// countBy groups recs by key (skipping ""), counting records and
// distinct client addresses, and returns the keys sorted.
func countBy(recs []*session.Record, key func(*session.Record) string, keep func(*session.Record) bool) ([]string, map[string]int, map[string]map[string]bool) {
	n := map[string]int{}
	ips := map[string]map[string]bool{}
	for _, r := range recs {
		if keep != nil && !keep(r) {
			continue
		}
		k := key(r)
		n[k]++
		if ips[k] == nil {
			ips[k] = map[string]bool{}
		}
		ips[k][r.ClientIP] = true
	}
	keys := make([]string, 0, len(n))
	for k := range n {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, n, ips
}

func all(*session.Record) string { return "" }

func mdrfckr(r *session.Record) bool { return strings.Contains(r.CommandText(), "mdrfckr") }

func triedRoot(r *session.Record) bool {
	for _, l := range r.Logins {
		if l.Username == "root" {
			return true
		}
	}
	return false
}

// statements returns the README's ten statements, the ip dossier once
// for each address given.
func statements(dossierIPs ...string) []statement {
	out := []statement{
		{"meta", "SELECT month, count(*) GROUP BY month ORDER BY month", true, 0, func(rs []*session.Record) [][]string {
			keys, n, _ := countBy(rs, month, nil)
			var out [][]string
			for _, k := range keys {
				out = append(out, []string{k, itoa(n[k])})
			}
			return out
		}},
		{"meta", "SELECT month, kind, count(*) GROUP BY month, kind ORDER BY month, kind", true, 0, func(rs []*session.Record) [][]string {
			keys, n, _ := countBy(rs, func(r *session.Record) string {
				return month(r) + "\x00" + strconv.Itoa(int(r.Kind()))
			}, nil)
			var out [][]string
			for _, k := range keys {
				m, kind, _ := strings.Cut(k, "\x00")
				ki, _ := strconv.Atoi(kind)
				out = append(out, []string{m, session.Kind(ki).String(), itoa(n[k])})
			}
			return out
		}},
		{"meta", "SELECT proto, count(*) GROUP BY proto", false, 0, func(rs []*session.Record) [][]string {
			keys, n, _ := countBy(rs, func(r *session.Record) string { return r.Protocol }, nil)
			var out [][]string
			for _, k := range keys {
				out = append(out, []string{k, itoa(n[k])})
			}
			return out
		}},
		{"scan", "SELECT count(*) WHERE login_ok = true AND state_changed = false", false, 0, func(rs []*session.Record) [][]string {
			_, n, _ := countBy(rs, all, func(r *session.Record) bool { return r.LoggedIn() && !r.StateChanged })
			return aggRow(n[""])
		}},
		{"scan", "SELECT count(*), count(distinct ip) WHERE user = 'root'", false, 0, func(rs []*session.Record) [][]string {
			_, n, ips := countBy(rs, all, triedRoot)
			return aggRow(n[""], len(ips[""]))
		}},
		{"scan", "SELECT count(*), count(distinct ip) WHERE cmd ~ /mdrfckr/", false, 0, func(rs []*session.Record) [][]string {
			_, n, ips := countBy(rs, all, mdrfckr)
			return aggRow(n[""], len(ips[""]))
		}},
		{"scan", "SELECT month, count(*) WHERE cmd ~ /mdrfckr/ GROUP BY month ORDER BY month", true, 0, func(rs []*session.Record) [][]string {
			keys, n, _ := countBy(rs, month, mdrfckr)
			var out [][]string
			for _, k := range keys {
				out = append(out, []string{k, itoa(n[k])})
			}
			return out
		}},
		{"scan", "SELECT month, sum(dls), count(distinct ip) WHERE dls > 0 GROUP BY month", false, 0, func(rs []*session.Record) [][]string {
			sum := map[string]int{}
			keys, _, ips := countBy(rs, month, func(r *session.Record) bool {
				if len(r.Downloads) > 0 {
					sum[month(r)] += len(r.Downloads)
					return true
				}
				return false
			})
			var out [][]string
			for _, k := range keys {
				out = append(out, []string{k, itoa(sum[k]), itoa(len(ips[k]))})
			}
			return out
		}},
		{"scan", "SELECT avg(duration), max(duration) WHERE login_ok = true", false, 0, func(rs []*session.Record) [][]string {
			var sum, mx float64
			n := 0
			for _, r := range rs {
				if !r.LoggedIn() {
					continue
				}
				d := r.End.Sub(r.Start).Seconds()
				sum += d
				mx = math.Max(mx, d)
				n++
			}
			if n == 0 {
				return nil
			}
			return [][]string{{fmtFloat(sum / float64(n)), fmtFloat(mx)}}
		}},
	}
	for _, ip := range dossierIPs {
		out = append(out, statement{"point", "SELECT start, user, cmds, dls WHERE ip = '" + ip + "' LIMIT 20", false, 20, func(rs []*session.Record) [][]string {
			var out [][]string
			for _, r := range rs {
				if r.ClientIP != ip {
					continue
				}
				user := ""
				if len(r.Logins) > 0 {
					user = r.Logins[0].Username
				}
				out = append(out, []string{r.Start.UTC().Format(time.RFC3339), user, itoa(len(r.Commands)), itoa(len(r.Downloads))})
			}
			return out
		}})
	}
	return out
}

// aggRow is the single row of an ungrouped aggregate; no row when
// nothing matched.
func aggRow(vals ...int) [][]string {
	if vals[0] == 0 {
		return nil
	}
	row := make([]string, len(vals))
	for i, v := range vals {
		row[i] = itoa(v)
	}
	return [][]string{row}
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// rowsOf renders a query result's rows as strings.
func rowsOf(res *honeynet.QueryResult) [][]string {
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = make([]string, len(row))
		for j, v := range row {
			out[i][j] = v.String()
		}
	}
	return out
}

// compareRows checks got against want, cell by cell; numeric cells
// compare within 1e-9 relative (float sums may associate differently).
// Unordered results compare as multisets of rows. With a limit, want
// holds every matching row and got must be min(limit, len(want)) of
// them.
func compareRows(got, want [][]string, ordered bool, limit int) error {
	if limit > 0 && len(want) > limit {
		if len(got) != limit {
			return fmt.Errorf("%d rows, want %d of %d matching", len(got), limit, len(want))
		}
		left := map[string]int{}
		for _, row := range want {
			left[strings.Join(row, "\x00")]++
		}
		for i, row := range got {
			k := strings.Join(row, "\x00")
			if left[k] == 0 {
				return fmt.Errorf("row %d %q matches no record", i, row)
			}
			left[k]--
		}
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		got, want = sortedRows(got), sortedRows(want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameCell(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d cell %d = %q, want %q", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func sortedRows(rows [][]string) [][]string {
	out := append([][]string(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i], "\x00") < strings.Join(out[j], "\x00") })
	return out
}

func sameCell(a, b string) bool {
	if a == b {
		return true
	}
	x, err1 := strconv.ParseFloat(a, 64)
	y, err2 := strconv.ParseFloat(b, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
}

// dossierIPs draws the addresses the ip dossier asks about: every
// fourth is absent from the data, the others are present.
func dossierIPs(recs []*session.Record, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed + 7))
	present := map[string]bool{}
	for _, r := range recs {
		present[r.ClientIP] = true
	}
	out := make([]string, n)
	for i := range out {
		if i%analystDossiers == analystDossiers-1 {
			for {
				ip := fmt.Sprintf("192.0.2.%d", rng.Intn(254)+1)
				if !present[ip] {
					out[i] = ip
					break
				}
			}
			continue
		}
		out[i] = recs[rng.Intn(len(recs))].ClientIP
	}
	return out
}

func runAnalyst(o *options, rep *report) error {
	recs, err := generate(o.seed, o.scale)
	if err != nil {
		return err
	}
	tr := newTracer(o.trace)

	// Set-up: write and seal the fleet directory several times, keep
	// the last. Each build first drops the one before it, so earlier
	// builds' writeback does not load the disk under later ones.
	var setupS, sealS []float64
	var dir string
	var after map[string]float64
	for i := 0; i < o.setups; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(o.work, fmt.Sprintf("fleet%d", i))
		var counters map[string]float64
		if i == o.setups-1 {
			after = map[string]float64{}
			counters = after
		}
		sp := tr.begin("setup.fleet_dir", 0, int64(i))
		t := time.Now()
		seal, err := writeFleetDir(dir, recs, counters)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		sealS = append(sealS, seal.Seconds())
		sp.end()
	}
	rep.e2e("setup_s", "s", steadyTime(setupS))

	// References, untimed: the expected aggregates and the figure output
	// of the same pipeline built by core.FromRecords over the records in
	// the fleet's canonical order.
	canon := canonical(recs)
	var ref bytes.Buffer
	if err := core.FromRecords(canon, nil).RunAll(&ref, analystCluster); err != nil {
		return fmt.Errorf("reference figures: %w", err)
	}
	ips := dossierIPs(recs, o.seed, 4096)
	classes := []string{"meta", "point", "scan"}

	budget := time.Duration(o.seconds * float64(time.Second))
	var spent time.Duration
	byClass := map[string][]float64{}
	var stmtMs, passMs, peaks, rates, roundLat []float64
	var layerTimes = map[string][]float64{}
	var plan = map[string]float64{}
	for round := 0; spent < budget || round < 3; round++ {
		// Collect the last figure pass's garbage outside the measured time.
		runtime.GC()
		var roundStmt time.Duration
		roundMs := map[string][]float64{}
		k := round * analystDossiers % len(ips)
		stmts := statements(ips[k : k+analystDossiers]...)
		for i, st := range stmts {
			sess := int64(round*100 + i)
			want := st.want(canon)
			t := time.Now()
			var res *honeynet.QueryResult
			var err error
			if o.trace {
				res, err = tracedQuery(tr, dir, st, sess, layerTimes)
			} else {
				res, err = honeynet.Query(dir, st.text)
			}
			d := time.Since(t)
			spent += d
			roundStmt += d
			ms := float64(d) / 1e6
			stmtMs = append(stmtMs, ms)
			roundMs[st.class] = append(roundMs[st.class], ms)
			byClass[st.class] = append(byClass[st.class], ms)
			if err == nil {
				err = compareRows(rowsOf(res), want, st.ordered, st.limit)
				planCounts(plan, st.class, res.Stats)
			}
			if err != nil {
				err = fmt.Errorf("%q: %v", st.text, err)
			}
			rep.op(err)
		}
		rates = append(rates, float64(len(stmts))/roundStmt.Seconds())
		// Each class weighs the same: the geometric mean of the round's
		// mean meta, point and scan statement times.
		logSum := 0.0
		for _, c := range classes {
			logSum += math.Log(mean(roundMs[c]))
		}
		roundLat = append(roundLat, math.Exp(logSum/float64(len(classes))))

		runtime.GC()
		heap := startHeapSampler(2 * time.Millisecond)
		var out bytes.Buffer
		t := time.Now()
		var err error
		if o.trace {
			err = tracedFigures(tr, dir, int64(round), &out, layerTimes)
		} else {
			var p *honeynet.Pipeline
			if p, err = honeynet.Open(dir); err == nil {
				err = p.RunAll(&out, analystCluster)
			}
		}
		d := time.Since(t)
		peaks = append(peaks, heap.end())
		spent += d
		passMs = append(passMs, float64(d)/1e6)
		if err == nil && !bytes.Equal(out.Bytes(), ref.Bytes()) {
			err = fmt.Errorf("figure output differs from core.FromRecords (%d vs %d bytes)", out.Len(), ref.Len())
		}
		if err != nil {
			err = fmt.Errorf("figures: %v", err)
		}
		rep.op(err)
	}

	rep.e2e("throughput_per_s", "1/s", steadyRate(rates))
	rep.e2e("latency_ms", "ms", steadyTime(roundLat))
	rep.e2e("ready_ms", "ms", steadyTime(passMs))
	rep.e2e("peak_heap_mb", "MiB", median(peaks))
	rep.info("statements", "count", float64(len(stmtMs)))
	rep.info("figure_passes", "count", float64(len(passMs)))
	rep.info("query_meta_ms", "ms", median(byClass["meta"]))
	rep.info("query_point_ms", "ms", median(byClass["point"]))
	rep.info("query_scan_ms", "ms", median(byClass["scan"]))
	rep.info("statement_p99_ms", "ms", quantile(stmtMs, 0.99))
	rep.info("figures_s", "s", median(passMs)/1e3)
	rep.info("figures_peak_heap_mb", "MiB", median(peaks))

	if o.trace {
		for _, name := range []string{
			"store.open_ms.meta", "store.open_ms.point", "store.open_ms.scan",
			"query.compile_us.meta", "query.compile_us.point", "query.compile_us.scan",
			"store.execute_ms.meta", "store.execute_ms.point", "store.execute_ms.scan",
		} {
			unit := "ms"
			if strings.HasPrefix(name, "query.compile_us") {
				unit = "us"
			}
			rep.layer(name, unit, median(layerTimes[name]))
		}
		for _, class := range classes {
			n := max(plan["n."+class], 1)
			rep.layer("query.blocks_read."+class, "count", plan["blocks."+class]/n)
			rep.layer("query.decoded_per_matched."+class, "count", plan["decoded."+class]/max(plan["matched."+class], 1))
			rep.layer("query.segments_pruned."+class, "count", plan["pruned."+class]/n)
			rep.layer("query.bloom_pruned."+class, "count", plan["bloom."+class]/n)
		}
		rep.layer("store.stream_recs_per_s", "1/s", median(layerTimes["stream_recs_per_s"]))
		rep.layer("core.build_s", "s", median(layerTimes["core.build_s"]))
		for _, ph := range []string{"analysis.classify_s", "analysis.dld_matrix_s", "analysis.kmedoids_s", "analysis.figures_sum_s"} {
			rep.layer(ph, "s", median(layerTimes[ph]))
		}
		rep.layer("setup.seal_s", "s", median(sealS))
		n := float64(len(recs))
		batches := after["honeynet_store_batch_flushes_total"]
		rep.layer("store.wal_batches_per_1k", "count", batches*1000/n)
		rep.layer("store.records_per_batch", "count", after["honeynet_store_batch_records_total"]/max(batches, 1))
		rep.layer("store.seals_per_1k", "count", after["honeynet_store_seals_total"]*1000/n)
		rep.layer("store.seal_blocks_per_1k", "count", after["honeynet_store_seal_blocks_total"]*1000/n)
		rep.layer("store.bytes_per_record", "B", float64(dirBytes(dir))/n)
		if err := writeTrace(o, tr, rep); err != nil {
			return err
		}
	}
	return nil
}

// planCounts accumulates PlanStats per statement class.
func planCounts(m map[string]float64, class string, ps store.PlanStats) {
	m["n."+class]++
	m["blocks."+class] += float64(ps.BlocksRead)
	m["decoded."+class] += float64(ps.ScannedRecords)
	m["matched."+class] += float64(ps.MatchedRecords)
	m["pruned."+class] += float64(ps.TimePruned + ps.BloomPruned)
	m["bloom."+class] += float64(ps.BloomPruned)
}

// tracedQuery runs a statement as honeynet.Query composes it — open
// the fleet read-only, compile, execute, close — with a span around
// each layer call.
func tracedQuery(tr *tracer, dir string, st statement, sess int64, times map[string][]float64) (*honeynet.QueryResult, error) {
	root := tr.begin("query."+st.class, 0, sess)
	defer root.end()
	sp := tr.begin("store.open", root.id, sess)
	fl, err := store.OpenFleet(dir, store.Options{ReadOnly: true})
	times["store.open_ms."+st.class] = append(times["store.open_ms."+st.class], float64(sp.end())/1e6)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	sp = tr.begin("query.compile", root.id, sess)
	c, err := query.Compile(st.text)
	times["query.compile_us."+st.class] = append(times["query.compile_us."+st.class], float64(sp.end())/1e3)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("store.execute", root.id, sess)
	res, err := c.Execute(fl)
	times["store.execute_ms."+st.class] = append(times["store.execute_ms."+st.class], float64(sp.end())/1e6)
	return res, err
}

// tracedFigures runs Open + RunAll as honeynet.Open composes it — open
// the fleet, stream it into core — with spans around the stream drain,
// the core build and the figure run, and the analysis phases read from
// an obs.Tracer.
func tracedFigures(tr *tracer, dir string, pass int64, out *bytes.Buffer, times map[string][]float64) error {
	root := tr.begin("figures", 0, pass)
	defer root.end()
	sp := tr.begin("store.open", root.id, pass)
	fl, err := store.OpenFleet(dir, store.Options{ReadOnly: true})
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin("store.stream", root.id, pass)
	var recs []*session.Record
	cur := fl.Stream()
	for cur.Next() {
		recs = append(recs, cur.Record())
	}
	d := sp.end()
	fl.Close()
	if err := cur.Err(); err != nil {
		return err
	}
	times["stream_recs_per_s"] = append(times["stream_recs_per_s"], float64(len(recs))/d.Seconds())
	sp = tr.begin("core.build", root.id, pass)
	p := core.FromRecords(recs, nil)
	times["core.build_s"] = append(times["core.build_s"], sp.end().Seconds())
	phases := obs.NewTracer()
	p.World.Tracer = phases
	sp = tr.begin("analysis.run_all", root.id, pass)
	err = p.RunAll(out, analystCluster)
	sp.end()
	var classifyS, dldS, kmS, figS float64
	for _, ph := range phases.Phases() {
		s := ph.Total.Seconds()
		switch {
		case ph.Name == "classify.batch":
			classifyS += s
		case strings.HasSuffix(ph.Name, "dld-matrix"):
			dldS += s
		case ph.Name == "cluster.kmedoids":
			kmS += s
		case strings.HasPrefix(ph.Name, "fig."):
			figS += s
		}
	}
	times["analysis.classify_s"] = append(times["analysis.classify_s"], classifyS)
	times["analysis.dld_matrix_s"] = append(times["analysis.dld_matrix_s"], dldS)
	times["analysis.kmedoids_s"] = append(times["analysis.kmedoids_s"], kmS)
	times["analysis.figures_sum_s"] = append(times["analysis.figures_sum_s"], figS)
	return err
}
