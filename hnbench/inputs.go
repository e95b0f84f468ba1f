package main

import (
	"math/rand"

	"honeynet/internal/session"
	"honeynet/internal/simulate"
)

// defaultScale divides paper-scale volume: 20000 turns the 33-month
// window into about 32k sessions (botnet catalog, paper kind mix, about
// 14% Telnet).
const defaultScale = 20000

// generate returns the sessions simulate.Run produces for seed over the
// whole paper window, in the order the simulation emits them (day by
// day). Generating them is never timed.
func generate(seed int64, scale float64) ([]*session.Record, error) {
	res, err := simulate.Run(simulate.Config{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Store.All(), nil
}

// shuffled returns a seeded permutation of recs, so a time-bounded run
// replays a sample of the whole window instead of its first months.
func shuffled(recs []*session.Record, seed int64) []*session.Record {
	out := append([]*session.Record(nil), recs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
