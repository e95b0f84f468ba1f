package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"honeynet"
	"honeynet/internal/classify"
	"honeynet/internal/fleet"
	"honeynet/internal/live"
	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/sshwire"
)

// honeypotd's fleet-edge defaults (cmd/honeypotd/config.go): the guard
// limits every deployed edge runs with.
const (
	edgeMaxConns      = 512
	edgeMaxConnsPerIP = 8
	edgeRate          = "5/s"
	edgeDLBudget      = 120
	edgeHostname      = "svr04"
)

// sessionDeadline bounds one replayed session on the client side; a
// whole session normally takes milliseconds.
const sessionDeadline = 20 * time.Second

// ipBase is the first source address: 127.0.1.0. Session slot i
// connects from 127.0.0.0 + ipBase + i, so every session has its own
// address and the guard's per-IP limits never refuse one.
const ipBase = 1 << 8

func slotIP(slot int) net.IP {
	k := ipBase + slot
	return net.IPv4(127, byte(k>>16), byte(k>>8), byte(k))
}

// ipSlot maps a recorded client address back to its session slot.
func ipSlot(ip string) (int, bool) {
	a := net.ParseIP(ip).To4()
	if a == nil || a[0] != 127 {
		return 0, false
	}
	k := int(a[1])<<16 | int(a[2])<<8 | int(a[3])
	return k - ipBase, k >= ipBase
}

// slotTimes holds each session's timestamps (ns from the epoch), set
// from the client goroutine and from the edge's and collector's
// OnRecord callbacks.
type slotTimes struct {
	epoch                     time.Time
	start, closed, edge, coll []atomic.Int64
}

func newSlotTimes(n int) *slotTimes {
	return &slotTimes{
		epoch:  time.Now(),
		start:  make([]atomic.Int64, n),
		closed: make([]atomic.Int64, n),
		edge:   make([]atomic.Int64, n),
		coll:   make([]atomic.Int64, n),
	}
}

func (s *slotTimes) now() int64 { return int64(time.Since(s.epoch)) }

// mark stores now into ts[slot] for the record's session, keeping the
// first mark. Duplicates and strangers are caught by the collector
// check, which counts records on disk.
func (s *slotTimes) mark(ts []atomic.Int64, r *session.Record) {
	if slot, ok := ipSlot(r.ClientIP); ok && slot < len(ts) {
		ts[slot].CompareAndSwap(0, s.now())
	}
}

// attackRig is one edge (honeynet.Serve with honeypotd's fleet-edge
// defaults) forwarding to one collector built the way cmd/hncollect
// builds it.
type attackRig struct {
	coll    *fleet.Server
	collReg *obs.Registry
	livep   *live.Pipeline
	edge    *honeynet.Server
	collDir string
	edgeDir string

	slots     atomic.Pointer[slotTimes]
	collected atomic.Int64
	tr        *tracer
	obsMu     sync.Mutex
	obsUs     []float64 // live.Observe durations, traced run only
}

func startAttackRig(dir string, tr *tracer) (*attackRig, error) {
	rig := &attackRig{collDir: filepath.Join(dir, "collector"), edgeDir: filepath.Join(dir, "edge"), tr: tr}
	rig.livep = live.NewPipeline(live.Options{})
	coll, err := fleet.NewServer(rig.collDir, fleet.ServerOptions{
		SyncAck:  true,
		OnRecord: func(_ string, r *session.Record) { rig.onCollected(r) },
	})
	if err != nil {
		return nil, err
	}
	rig.coll = coll
	addr, err := coll.Listen("127.0.0.1:0")
	if err != nil {
		coll.Close()
		return nil, err
	}
	rig.collReg = obs.NewRegistry()
	coll.Register(rig.collReg)
	rig.livep.Register(rig.collReg)
	classify.Register(rig.collReg)

	edge, err := honeynet.Serve(honeynet.ServeConfig{
		SSHAddr:        "127.0.0.1:0",
		TelnetAddr:     "127.0.0.1:0",
		Hostname:       edgeHostname,
		MaxConns:       edgeMaxConns,
		MaxConnsPerIP:  edgeMaxConnsPerIP,
		Rate:           edgeRate,
		DownloadBudget: edgeDLBudget,
		StorePath:      rig.edgeDir,
		ForwardAddr:    addr.String(),
		OnRecord: func(r *session.Record) {
			if s := rig.slots.Load(); s != nil {
				s.mark(s.edge, r)
			}
		},
	})
	if err != nil {
		coll.Close()
		return nil, err
	}
	rig.edge = edge
	// The edge is up once its forwarder holds a collector session.
	deadline := time.Now().Add(10 * time.Second)
	for !edge.Forwarder().Connected() {
		if time.Now().After(deadline) {
			rig.close()
			return nil, errors.New("forwarder did not connect")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return rig, nil
}

// onCollected is the collector's OnRecord: live analytics, as
// cmd/hncollect wires it, plus the benchmark's timestamp.
func (rig *attackRig) onCollected(r *session.Record) {
	var t0 time.Time
	if rig.tr.on {
		t0 = time.Now()
	}
	rig.livep.Observe(r)
	if rig.tr.on {
		d := time.Since(t0)
		rig.obsMu.Lock()
		rig.obsUs = append(rig.obsUs, float64(d)/float64(time.Microsecond))
		rig.obsMu.Unlock()
	}
	if s := rig.slots.Load(); s != nil {
		s.mark(s.coll, r)
	}
	rig.collected.Add(1)
}

// close drains the edge (seals its store) and closes the collector
// (seals its shards), returning how long each took.
func (rig *attackRig) close() (edgeClose, collClose time.Duration, err error) {
	t := time.Now()
	_, e1 := rig.edge.Drain("benchmark")
	edgeClose = time.Since(t)
	t = time.Now()
	e2 := rig.coll.Close()
	collClose = time.Since(t)
	return edgeClose, collClose, errors.Join(e1, e2)
}

// attackRound is how many sessions one round replays against a fresh
// edge and collector.
const attackRound = 1500

func runAttack(o *options, rep *report) error {
	recs, err := generate(o.seed, o.scale)
	if err != nil {
		return err
	}
	pool := shuffled(recs, o.seed)
	tr := newTracer(o.trace)
	capSlots := int(o.seconds*20000) + o.round
	slots := newSlotTimes(capSlots)
	errs := make([]error, capSlots)
	budget := time.Duration(o.seconds * float64(time.Second))

	var spent, cpu time.Duration
	var setupS, rates, sessP50, collP50, peaks, sessAll, collAll, obsUs []float64
	var closeS, collCloseS []float64
	edgeCounters, collCounters := map[string]float64{}, map[string]float64{}
	var edgeBytes int64
	base := 0
	// Whole rounds until the measured time is used; at least three, so
	// every median has a middle.
	for round := 0; (spent < budget || round < 3) && base+o.round <= capSlots; round++ {
		runtime.GC()
		t := time.Now()
		rig, err := startAttackRig(filepath.Join(o.work, fmt.Sprintf("round%d", round)), tr)
		if err != nil {
			return fmt.Errorf("round %d setup: %w", round, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		rig.slots.Store(slots)

		// Closed loop: o.clients clients, each replaying the next session
		// as soon as its previous one closed.
		var next atomic.Int64
		next.Store(int64(base))
		end := base + o.round
		heap := startHeapSampler(5 * time.Millisecond)
		cpu0 := cpuTime()
		begin := time.Now()
		sshAddr, telAddr := rig.edge.SSHAddr(), rig.edge.TelnetAddr()
		var wg sync.WaitGroup
		for c := 0; c < o.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					slot := int(next.Add(1) - 1)
					if slot >= end {
						return
					}
					rec := pool[slot%len(pool)]
					root := tr.begin("session", 0, int64(slot))
					slots.start[slot].Store(slots.now())
					if rec.Protocol == session.ProtoTelnet {
						errs[slot] = replayTelnet(telAddr, slotIP(slot), rec, tr, root.id, int64(slot))
					} else {
						errs[slot] = replaySSH(sshAddr, slotIP(slot), rec, tr, root.id, int64(slot))
					}
					slots.closed[slot].Store(slots.now())
					root.end()
					// A session that ran into its deadline hung somewhere;
					// the error need not say so (a layer may wrap it away).
					took := time.Duration(slots.closed[slot].Load() - slots.start[slot].Load())
					if errs[slot] != nil && took >= sessionDeadline {
						dumpStuck(o, slot, rec)
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(begin)
		cpu += cpuTime() - cpu0
		peaks = append(peaks, heap.end())
		spent += elapsed

		// Every session leaves a record at the edge, even a failed one;
		// wait until the collector holds them all.
		waitUntil := time.Now().Add(30 * time.Second)
		for rig.collected.Load() < int64(o.round) && time.Now().Before(waitUntil) {
			time.Sleep(time.Millisecond)
		}
		liveSnap := rig.livep.Snapshot()
		edgeClose, collClose, err := rig.close()
		if err != nil {
			return fmt.Errorf("round %d teardown: %w", round, err)
		}
		closeS = append(closeS, edgeClose.Seconds())
		collCloseS = append(collCloseS, collClose.Seconds())
		addInto(edgeCounters, rig.edge.Registry().Snapshot())
		addInto(collCounters, rig.collReg.Snapshot())
		edgeBytes += dirBytes(rig.edgeDir)
		obsUs = append(obsUs, rig.obsUs...)

		// Checks: every session of the round exactly once on the
		// collector, equal to the simulated source record; live
		// categories equal batch Classify.
		collected, err := readFleet(rig.collDir)
		if err != nil {
			return fmt.Errorf("round %d: read collector: %w", round, err)
		}
		seen := make([]int, o.round)
		mismatch := make([]string, o.round)
		for _, r := range collected {
			slot, ok := ipSlot(r.ClientIP)
			if !ok || slot < base || slot >= end {
				rep.violate("collector holds a record from an unknown source " + r.ClientIP)
				continue
			}
			seen[slot-base]++
			if d := sameAttack(r, pool[slot%len(pool)]); d != "" && mismatch[slot-base] == "" {
				mismatch[slot-base] = d
			}
		}
		var sessLat, collLat []float64
		for slot := base; slot < end; slot++ {
			var err error
			switch i := slot - base; {
			case errs[slot] != nil:
				err = fmt.Errorf("session %d: client: %v", slot, errs[slot])
			case seen[i] != 1:
				err = fmt.Errorf("session %d: on the collector %d times", slot, seen[i])
			case mismatch[i] != "":
				err = fmt.Errorf("session %d (%s): %s differs", slot, pool[slot%len(pool)].Protocol, mismatch[i])
			}
			rep.op(err)
			if err != nil {
				continue
			}
			t0 := slots.start[slot].Load()
			sessLat = append(sessLat, float64(slots.closed[slot].Load()-t0)/1e6)
			collLat = append(collLat, float64(slots.coll[slot].Load()-t0)/1e6)
		}
		rep.op(checkLive(liveSnap, collected))
		os.RemoveAll(filepath.Join(o.work, fmt.Sprintf("round%d", round)))
		rates = append(rates, float64(len(sessLat))/elapsed.Seconds())
		sessP50 = append(sessP50, quantile(sessLat, 0.5))
		collP50 = append(collP50, quantile(collLat, 0.5))
		sessAll = append(sessAll, sessLat...)
		collAll = append(collAll, collLat...)
		base = end
	}

	// Each round is one sample; see steadyTime for which one counts.
	rep.e2e("setup_s", "s", steadyTime(setupS))
	rep.e2e("throughput_per_s", "1/s", steadyRate(rates))
	rep.e2e("latency_ms", "ms", steadyTime(sessP50))
	rep.e2e("ready_ms", "ms", steadyTime(collP50))
	rep.e2e("peak_heap_mb", "MiB", median(peaks))
	rep.info("rounds", "count", float64(len(rates)))
	rep.info("sessions", "count", float64(len(sessAll)))
	rep.info("sessions_per_s", "1/s", median(rates))
	rep.info("session_p50_ms", "ms", quantile(sessAll, 0.5))
	rep.info("session_p99_ms", "ms", quantile(sessAll, 0.99))
	rep.info("collected_p50_ms", "ms", quantile(collAll, 0.5))
	rep.info("collected_p99_ms", "ms", quantile(collAll, 0.99))
	rep.info("process.cpu_us_per_session", "us", float64(cpu)/1e3/float64(max(base, 1)))

	if o.trace {
		// Cross-goroutine spans: client close -> edge OnRecord (finish,
		// store.Append, live.Observe on the session goroutine), and edge
		// OnRecord -> collector OnRecord (forward, collector commit).
		for slot := 0; slot < base; slot++ {
			cl, ed, co := slots.closed[slot].Load(), slots.edge[slot].Load(), slots.coll[slot].Load()
			if ed == 0 || co == 0 {
				continue
			}
			tr.add("honeypot.record", 0, int64(slot), slots.epoch.Add(time.Duration(min(cl, ed))), slots.epoch.Add(time.Duration(ed)))
			tr.add("fleet.forward", 0, int64(slot), slots.epoch.Add(time.Duration(ed)), slots.epoch.Add(time.Duration(max(co, ed))))
		}
		n := float64(max(base, 1))
		layerP50 := func(name, span string) {
			rep.layer(name, "ms", quantile(durMs(tr.durations(span)), 0.5))
		}
		layerP50("sshwire.handshake_ms", "sshwire.handshake")
		layerP50("sshd.auth_ms", "sshd.auth")
		layerP50("shell.command_ms", "shell.command")
		layerP50("telnetd.session_ms", "telnetd.session")
		layerP50("honeypot.record_ms", "honeypot.record")
		layerP50("fleet.forward_ms", "fleet.forward")
		rep.layer("process.cpu_us_per_session", "us", float64(cpu)/1e3/n)
		rep.layer("live.observe_us_p50", "us", quantile(obsUs, 0.5))
		rep.layer("live.observe_us_p99", "us", quantile(obsUs, 0.99))
		ingestCounters(rep, edgeCounters, collCounters, n)
		rep.layer("store.close_s", "s", median(closeS))
		rep.layer("collector.close_s", "s", median(collCloseS))
		rep.layer("store.bytes_per_record", "B", float64(edgeBytes)/n)
		if err := writeTrace(o, tr, rep); err != nil {
			return err
		}
	}
	return nil
}

// dialFrom connects to addr from the given loopback source address.
func dialFrom(addr string, ip net.IP) (net.Conn, error) {
	d := net.Dialer{LocalAddr: &net.TCPAddr{IP: ip}, Timeout: 10 * time.Second}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(time.Now().Add(sessionDeadline))
	return nc, nil
}

// replaySSH replays one session over SSH as its script says: scanning
// sessions connect and close; otherwise key exchange, every login
// attempt in order, and each command as its own exec round trip.
func replaySSH(addr string, ip net.IP, rec *session.Record, tr *tracer, root, sess int64) error {
	nc, err := dialFrom(addr, ip)
	if err != nil {
		return err
	}
	if len(rec.Logins) == 0 {
		return nc.Close()
	}
	sp := tr.begin("sshwire.handshake", root, sess)
	conn, err := sshwire.ClientHandshake(nc, &sshwire.Config{Version: rec.ClientVersion, HandshakeTimeout: sessionDeadline})
	sp.end()
	if err != nil {
		nc.Close()
		return fmt.Errorf("handshake: %w", err)
	}
	// The handshake clears the connection's deadline; restore it.
	_ = conn.SetDeadline(time.Now().Add(sessionDeadline))
	if err := conn.RequestService("ssh-userauth"); err != nil {
		conn.Close()
		return err
	}
	ok := false
	for _, l := range rec.Logins {
		sp := tr.begin("sshd.auth", root, sess)
		ok, err = sshAuth(conn, l.Username, l.Password)
		sp.end()
		if err != nil {
			conn.Close()
			return fmt.Errorf("auth: %w", err)
		}
		if ok {
			break
		}
	}
	if !ok || len(rec.Commands) == 0 {
		return conn.Close()
	}
	mux := sshwire.NewMux(conn)
	for _, c := range rec.Commands {
		sp := tr.begin("shell.command", root, sess)
		err := sshExec(mux, c.Raw)
		sp.end()
		if err != nil {
			mux.Close()
			return fmt.Errorf("exec: %w", err)
		}
	}
	return mux.Close()
}

// sshAuth sends one password attempt and reports whether it succeeded.
func sshAuth(conn *sshwire.Conn, user, password string) (bool, error) {
	b := sshwire.NewBuilder(64)
	b.Byte(sshwire.MsgUserauthRequest)
	b.StringS(user)
	b.StringS("ssh-connection")
	b.StringS("password")
	b.Bool(false)
	b.StringS(password)
	if err := conn.WritePacket(b.Bytes()); err != nil {
		return false, err
	}
	for {
		p, err := conn.ReadPacket()
		if err != nil {
			return false, err
		}
		switch p[0] {
		case sshwire.MsgUserauthSuccess:
			return true, nil
		case sshwire.MsgUserauthFailure:
			return false, nil
		case sshwire.MsgUserauthBanner:
		default:
			return false, fmt.Errorf("unexpected auth reply %s", sshwire.MsgName(p[0]))
		}
	}
}

// sshExec runs one command as an RFC 4254 exec request and reads its
// output until the channel closes.
//
// The request asks for no reply. sshwire's Channel.SendRequest creates
// its reply queue only after the request is written, and a channel
// close drops the queue: when the server's success, output and close
// all arrive before the client reaches that line, the reply is lost
// and SendRequest waits until the connection dies. A rejected command
// still shows, as a record that differs from its source.
func sshExec(mux *sshwire.Mux, command string) error {
	ch, err := mux.OpenChannel("session", nil)
	if err != nil {
		return err
	}
	defer ch.Close()
	b := sshwire.NewBuilder(4 + len(command))
	b.StringS(command)
	if _, err := ch.SendRequest("exec", false, b.Bytes()); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for req := range ch.Requests() {
			_ = req.Reply(false)
		}
	}()
	if _, err := io.Copy(io.Discard, ch); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	<-done
	return nil
}

// replayTelnet replays one session over Telnet: scanning sessions
// connect and close; otherwise each login at the login/Password
// prompts, then each command line, waiting for the shell prompt.
func replayTelnet(addr string, ip net.IP, rec *session.Record, tr *tracer, root, sess int64) error {
	nc, err := dialFrom(addr, ip)
	if err != nil {
		return err
	}
	defer nc.Close()
	if len(rec.Logins) == 0 {
		return nil
	}
	sp := tr.begin("telnetd.session", root, sess)
	defer sp.end()
	t := &telnetClient{nc: nc}
	loggedIn := false
	for _, l := range rec.Logins {
		if err := t.until(func(b []byte) bool { return bytes.HasSuffix(b, []byte("login: ")) }); err != nil {
			return fmt.Errorf("login prompt: %w", err)
		}
		t.send(l.Username)
		if err := t.until(func(b []byte) bool { return bytes.HasSuffix(b, []byte("Password: ")) }); err != nil {
			return fmt.Errorf("password prompt: %w", err)
		}
		t.send(l.Password)
		if err := t.until(func(b []byte) bool {
			return bytes.Contains(b, []byte("Login incorrect")) || atPrompt(b)
		}); err != nil {
			return fmt.Errorf("login reply: %w", err)
		}
		if atPrompt(t.buf) {
			loggedIn = true
			break
		}
	}
	if !loggedIn {
		return nil
	}
	for _, c := range rec.Commands {
		t.send(c.Raw)
		if err := t.until(atPrompt); err != nil {
			if errors.Is(err, io.EOF) {
				return nil // the command ended the shell (exit, logout)
			}
			return fmt.Errorf("command: %w", err)
		}
	}
	return nil
}

// telnetClient reads NVT data with IAC sequences removed.
type telnetClient struct {
	nc  net.Conn
	buf []byte // data since the last send
	iac int    // IAC parser state: 0 data, 1 after IAC, 2 option byte, 3 in SB, 4 IAC in SB
	raw [4096]byte
}

func (t *telnetClient) send(line string) {
	t.buf = t.buf[:0]
	_, _ = t.nc.Write([]byte(line + "\r\n"))
}

// until reads until done(buf) holds, returning io.EOF if the server
// closes first.
func (t *telnetClient) until(done func([]byte) bool) error {
	for !done(t.buf) {
		n, err := t.nc.Read(t.raw[:])
		for _, b := range t.raw[:n] {
			t.feed(b)
		}
		if err != nil {
			if done(t.buf) {
				return nil
			}
			return err
		}
	}
	return nil
}

// feed advances the IAC parser by one byte, keeping data bytes.
func (t *telnetClient) feed(b byte) {
	switch t.iac {
	case 0:
		if b == 255 {
			t.iac = 1
		} else {
			t.buf = append(t.buf, b)
		}
	case 1:
		switch {
		case b == 255: // IAC IAC: a literal 0xFF
			t.buf = append(t.buf, b)
			t.iac = 0
		case b >= 251: // WILL, WONT, DO, DONT: one option byte follows
			t.iac = 2
		case b == 250: // SB: skip to IAC SE
			t.iac = 3
		default:
			t.iac = 0
		}
	case 2:
		t.iac = 0
	case 3:
		if b == 255 {
			t.iac = 4
		}
	case 4:
		if b == 240 {
			t.iac = 0
		} else {
			t.iac = 3
		}
	}
}

// atPrompt reports whether b ends in the emulated shell's prompt,
// "user@svr04:cwd# ".
func atPrompt(b []byte) bool {
	if !bytes.HasSuffix(b, []byte("# ")) {
		return false
	}
	line := b[bytes.LastIndexByte(b, '\n')+1:]
	return bytes.Contains(line, []byte("@"+edgeHostname+":"))
}

// dumpStuck writes every goroutine's stack, once per run, when a
// session timed out, so the layer it hung in can be found afterwards.
func dumpStuck(o *options, slot int, rec *session.Record) {
	stuckOnce.Do(func() {
		buf := make([]byte, 4<<20)
		buf = buf[:runtime.Stack(buf, true)]
		path := filepath.Join(filepath.Dir(o.work), fmt.Sprintf("stuck-%s-seed%d-session%d.txt", o.workload, o.seed, slot))
		head := fmt.Sprintf("session %d timed out: %s, %d logins, %d commands\n", slot, rec.Protocol, len(rec.Logins), len(rec.Commands))
		for _, c := range rec.Commands {
			head += "  " + c.Raw + "\n"
		}
		if err := os.WriteFile(path, append([]byte(head), buf...), 0o644); err == nil {
			fmt.Fprintf(os.Stderr, "hnbench: session %d timed out; goroutines written to %s\n", slot, path)
		}
	})
}

var stuckOnce sync.Once
