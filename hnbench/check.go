package main

import (
	"fmt"
	"reflect"
	"strings"

	"honeynet/internal/classify"
	"honeynet/internal/live"
	"honeynet/internal/session"
	"honeynet/internal/store"
)

// sameAttack reports the first field on which a collected record
// differs from the simulated record it replays: kind, logins, commands,
// downloads, exec attempts, state change, dropped hashes and client
// version. Addresses, ports, times and ids legitimately differ.
func sameAttack(got, want *session.Record) string {
	switch {
	case got.Kind() != want.Kind():
		return "kind " + got.Kind().String() + " != " + want.Kind().String()
	case got.Protocol != want.Protocol:
		return "proto " + got.Protocol + " != " + want.Protocol
	case !eqSlice(got.Logins, want.Logins):
		return "logins"
	case !eqSlice(got.Commands, want.Commands):
		return "commands"
	case !eqSlice(got.Downloads, want.Downloads):
		return "downloads"
	case !eqSlice(got.ExecAttempts, want.ExecAttempts):
		return "exec attempts"
	case got.StateChanged != want.StateChanged:
		return "state_changed"
	case !eqSlice(got.DroppedHashes, want.DroppedHashes):
		return "dropped hashes"
	case got.ClientVersion != want.ClientVersion:
		return "client version " + got.ClientVersion + " != " + want.ClientVersion
	}
	return ""
}

// eqSlice compares two slices element-wise, treating nil and empty as
// equal.
func eqSlice[T any](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || reflect.DeepEqual(a, b)
}

// sameRecord reports the first field on which two records differ, over
// every field of the record.
func sameRecord(got, want *session.Record) string {
	if d := sameAttack(got, want); d != "" {
		return d
	}
	switch {
	case got.ID != want.ID:
		return "id"
	case !got.Start.Equal(want.Start):
		return "start"
	case !got.End.Equal(want.End):
		return "end"
	case got.HoneypotID != want.HoneypotID:
		return "hp"
	case got.HoneypotIP != want.HoneypotIP:
		return "hp_ip"
	case got.ClientIP != want.ClientIP:
		return "client_ip"
	case got.ClientPort != want.ClientPort:
		return "client_port"
	case got.TimedOut != want.TimedOut:
		return "timeout"
	}
	return ""
}

// readFleet reads every record of a sealed fleet directory in the
// fleet's canonical order.
func readFleet(dir string) ([]*session.Record, error) {
	fl, err := store.OpenFleet(dir, store.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	var out []*session.Record
	cur := fl.Stream()
	for cur.Next() {
		out = append(out, cur.Record())
	}
	return out, cur.Err()
}

// checkLive compares the live pipeline's category counts with
// classify.Classify run in batch over the same records.
func checkLive(snap *live.Snapshot, recs []*session.Record) error {
	c := classify.New()
	want := map[string]int64{}
	for _, r := range recs {
		if text := r.CommandText(); text != "" {
			want[c.Classify(text)]++
		}
	}
	got := map[string]int64{}
	for _, cs := range snap.Categories {
		got[cs.Name] = cs.Count
	}
	var diffs []string
	for name, n := range want {
		if got[name] != n {
			diffs = append(diffs, fmt.Sprintf("%s live %d batch %d", name, got[name], n))
		}
	}
	for name, n := range got {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s live %d batch 0", name, n))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("live categories differ from batch: %s", strings.Join(diffs, "; "))
	}
	return nil
}
