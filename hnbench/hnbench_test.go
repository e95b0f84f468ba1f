package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"honeynet"
	"honeynet/internal/live"
	"honeynet/internal/session"
)

// tinyScale turns the paper window into about 3k sessions.
const tinyScale = 200000

func tinyOptions(t *testing.T, workload string) *options {
	return &options{
		workload: workload,
		seed:     3,
		seconds:  0.2,
		scale:    tinyScale,
		clients:  2,
		setups:   2,
		round:    60,
		work:     t.TempDir(),
		traceDir: t.TempDir(),
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, traced and
// untraced, with every check on: no operation may fail, and every
// declared metric must be measured.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"attack", "backfill", "analyst"} {
		for _, traced := range []bool{false, true} {
			o := tinyOptions(t, w)
			o.trace = traced
			rep := newReport()
			if err := workloads[w](o, rep); err != nil {
				t.Fatalf("%s (trace %v): %v", w, traced, err)
			}
			if rep.failed != 0 || len(rep.violations) != 0 {
				t.Fatalf("%s (trace %v): %d of %d operations failed: %v", w, traced, rep.failed, rep.attempted, rep.violations)
			}
			if rep.attempted == 0 {
				t.Fatalf("%s: no operations attempted", w)
			}
			e2e, missing := shape(rep.endToEnd, benchSpec.EndToEnd, false)
			if len(missing) > 0 {
				t.Fatalf("%s: end-to-end metrics not measured: %v", w, missing)
			}
			for name, m := range e2e {
				if !(m.Value > 0) {
					t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
				}
			}
			if traced && len(rep.layers) == 0 {
				t.Errorf("%s: traced run measured no per-layer metric", w)
			}
		}
	}
}

func tinyRecords(t *testing.T) []*session.Record {
	t.Helper()
	recs, err := generate(3, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// commandRecord returns the first generated record with commands,
// downloads and a state change, so every compared field has content.
func commandRecord(t *testing.T, recs []*session.Record) *session.Record {
	t.Helper()
	for _, r := range recs {
		if len(r.Commands) > 1 && len(r.Downloads) > 0 && r.StateChanged {
			return r
		}
	}
	t.Fatal("no generated record with commands and downloads")
	return nil
}

// TestSameAttackDetectsAlteredRecord feeds the attack check one
// altered record per compared field.
func TestSameAttackDetectsAlteredRecord(t *testing.T) {
	want := commandRecord(t, tinyRecords(t))
	if d := sameAttack(want, want); d != "" {
		t.Fatalf("identical records differ in %s", d)
	}
	alter := []func(r *session.Record){
		func(r *session.Record) { r.Logins[len(r.Logins)-1].Password += "x" },
		func(r *session.Record) { r.Commands[1].Raw += " " },
		func(r *session.Record) { r.Commands = r.Commands[:len(r.Commands)-1] },
		func(r *session.Record) { r.Downloads[0].Hash = "0" },
		func(r *session.Record) { r.StateChanged = false },
		func(r *session.Record) { r.DroppedHashes = append(r.DroppedHashes, "x") },
		func(r *session.Record) { r.ClientVersion += "x" },
		func(r *session.Record) { r.Protocol = "telnet" },
	}
	for i, f := range alter {
		got := clone(t, want)
		f(got)
		if d := sameAttack(got, want); d == "" {
			t.Errorf("alteration %d not detected", i)
		}
	}
}

// clone deep-copies a record through JSON.
func clone(t *testing.T, r *session.Record) *session.Record {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var out session.Record
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestBackfillCheckDetectsAlteredRecord runs one backfill round, then
// checks the collector shard against the appended records with one of
// them altered: exactly that record must fail.
func TestBackfillCheckDetectsAlteredRecord(t *testing.T) {
	recs := tinyRecords(t)
	dir := t.TempDir()
	rd, err := runBackfillRound(dir, recs, newTracer(false), 0)
	if err != nil {
		t.Fatal(err)
	}
	perRecord, liveErr, err := checkBackfillShard(dir, recs, rd)
	if err != nil {
		t.Fatal(err)
	}
	if liveErr != nil {
		t.Fatal(liveErr)
	}
	for i, e := range perRecord {
		if e != nil {
			t.Fatalf("record %d: %v", i, e)
		}
	}
	altered := append([]*session.Record(nil), recs...)
	k := len(altered) / 2
	altered[k] = clone(t, altered[k])
	altered[k].End = altered[k].End.Add(1)
	perRecord, _, err = checkBackfillShard(dir, altered, rd)
	if err != nil {
		t.Fatal(err)
	}
	var bad []int
	for i, e := range perRecord {
		if e != nil {
			bad = append(bad, i)
		}
	}
	if len(bad) != 1 || bad[0] != k {
		t.Fatalf("altered record %d: failures at %v", k, bad)
	}
}

// TestCheckLiveDetectsWrongCount feeds the live check a snapshot with
// one category count off by one.
func TestCheckLiveDetectsWrongCount(t *testing.T) {
	recs := tinyRecords(t)
	p := live.NewPipeline(live.Options{})
	for _, r := range recs {
		p.Observe(r)
	}
	snap := p.Snapshot()
	if err := checkLive(snap, recs); err != nil {
		t.Fatal(err)
	}
	snap.Categories[0].Count++
	if err := checkLive(snap, recs); err == nil {
		t.Fatal("a wrong live count passed the check")
	}
}

// TestStatementChecksDetectWrongAggregate runs every statement against
// a tiny fleet directory, then alters one cell of each result: every
// statement's check must pass as is and fail altered.
func TestStatementChecksDetectWrongAggregate(t *testing.T) {
	recs := tinyRecords(t)
	dir := filepath.Join(t.TempDir(), "fleet")
	if _, err := writeFleetDir(dir, recs, nil); err != nil {
		t.Fatal(err)
	}
	canon := canonical(recs)
	ips := dossierIPs(recs, 3, 8)
	for _, ip := range ips {
		for _, st := range statements(ip) {
			res, err := honeynet.Query(dir, st.text)
			if err != nil {
				t.Fatalf("%s: %v", st.text, err)
			}
			got, want := rowsOf(res), st.want(canon)
			if err := compareRows(got, want, st.ordered, st.limit); err != nil {
				t.Fatalf("%s: %v", st.text, err)
			}
			if len(got) == 0 {
				continue // an absent address: nothing to alter
			}
			got[len(got)/2][len(got[0])-1] += "1"
			if err := compareRows(got, want, st.ordered, st.limit); err == nil {
				t.Errorf("%s: a wrong aggregate passed the check", st.text)
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json at the repository
// root equal to what --write-spec writes.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := writeSpec(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with --write-spec:\n%s", got)
	}
	for _, m := range benchSpec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4) on a known input.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestTelnetParserStripsIAC checks the Telnet client keeps data bytes
// and drops negotiation, subnegotiation and escaped IAC framing.
func TestTelnetParserStripsIAC(t *testing.T) {
	tc := &telnetClient{}
	in := []byte{255, 251, 1, 'a', 255, 250, 24, 1, 255, 240, 'b', 255, 255, 'c'}
	for _, b := range in {
		tc.feed(b)
	}
	if got := string(tc.buf); got != "ab\xffc" {
		t.Fatalf("parsed %q, want %q", got, "ab\xffc")
	}
	if !atPrompt([]byte("motd\r\nroot@svr04:~# ")) || atPrompt([]byte("# comment\r\n# ")) {
		t.Fatal("prompt detection is wrong")
	}
}
