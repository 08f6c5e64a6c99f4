package main

import (
	"fmt"
	"math/rand"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
	"fpmpart/internal/service"
)

const (
	ringMembers   = 3
	ringFleets    = 8
	fleetModels   = 6
	fleetSizes    = 16
	writeEvery    = 200 // every writeEvery-th operation of a client is a PUT
	recheckEvery  = 100 // one answer in recheckEvery is recomputed locally
	replicateWait = 10 * time.Second
)

// ringModel is one served model and the versions of it the benchmark wrote.
// Version k has peak basePeak·(1+(k mod 8)/20), so consecutive writes differ
// and a model's content says which write it came from; gens maps each
// acknowledged generation to its version. Only the client that owns the
// model's fleet touches it while the loop runs.
type ringModel struct {
	id       string
	writer   int // index of the one member all its writes go through
	basePeak float64
	version  int
	gens     map[uint64]int
}

func (m *ringModel) content(version int) *fpm.PiecewiseLinear {
	return service.SyntheticModel(modelKnots, m.basePeak*(1+float64(version%8)/20))
}

// sampledAnswer is an answer kept for recomputation after the window.
type sampledAnswer struct {
	fleet, n int
	units    []int
	gens     []uint64
}

// ringClient is the state one client goroutine owns.
type ringClient struct {
	c         *client
	gens      genChecker
	ok        int
	hits      int
	forwarded int
	sampled   []sampledAnswer
	writes    int
}

type ringInstance struct {
	members []*node
	fleets  [ringFleets][]*ringModel
	reqs    [ringFleets][]request
	clients []*ringClient
}

func setupRing(seed int64) (*ringInstance, error) {
	members, err := startRing(ringMembers)
	if err != nil {
		return nil, err
	}
	in := &ringInstance{members: members}
	for c := 0; c < 2; c++ {
		in.clients = append(in.clients, &ringClient{c: newClient(), gens: genChecker{}})
	}
	if err := in.prepare(rand.New(rand.NewSource(seed))); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// prepare generates the fleets, writes every model once, waits for the
// writes to reach every member and warms every key through every member, so
// the timed reads are cache hits except just after a write.
func (in *ringInstance) prepare(rng *rand.Rand) error {
	rc := in.clients[0]
	var all []*ringModel
	for f := range in.fleets {
		devices := make([]partition.Device, fleetModels)
		for j := range devices {
			m := &ringModel{
				id:       fmt.Sprintf("f%dm%d", f, j),
				writer:   f % ringMembers,
				basePeak: 100 + 900*rng.Float64(),
				gens:     map[uint64]int{},
			}
			in.fleets[f] = append(in.fleets[f], m)
			all = append(all, m)
			devices[j] = partition.Device{Name: m.id, Model: m.content(0)}
			if err := in.write(rc, m); err != nil {
				return err
			}
		}
		for len(in.reqs[f]) < fleetSizes {
			n := 300 + rng.Intn(1200)
			in.reqs[f] = append(in.reqs[f], newRequest(devices, n))
		}
	}
	if err := in.awaitReplication(rc, all...); err != nil {
		return err
	}
	for _, member := range in.members {
		for f := range in.reqs {
			for _, rq := range in.reqs[f] {
				if _, err := postPartition(rc.c, member.base, rq); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (in *ringInstance) close() {
	for _, rc := range in.clients {
		rc.c.close()
	}
	stopAll(in.members)
}

// write PUTs the next version of m through its writer member and records
// which generation that version got.
func (in *ringInstance) write(rc *ringClient, m *ringModel) error {
	version := m.version
	m.version++
	member := in.members[m.writer].base
	gen, err := rc.c.putModel(member, m.id, m.content(version))
	if err != nil {
		return err
	}
	m.gens[gen] = version
	rc.writes++
	// Reads through the writer member must from now on see this generation.
	return rc.gens.observe(member, m.id, gen)
}

// awaitReplication waits until every member serves each of models at the
// generation its last write was acknowledged with.
func (in *ringInstance) awaitReplication(rc *ringClient, models ...*ringModel) error {
	deadline := time.Now().Add(replicateWait)
	for _, m := range models {
		var want uint64
		for gen := range m.gens {
			want = max(want, gen)
		}
		for _, member := range in.members {
			for {
				got, err := rc.c.modelGen(member.base, m.id)
				if err != nil {
					return err
				}
				if got >= want {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("model %s: %s still at generation %d, want %d", m.id, member.base, got, want)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	return nil
}

// read sends client c's i-th read: fleets and sizes rotate, members take
// turns, so about two reads in three arrive at a member that does not own
// the key.
func (in *ringInstance) read(rc *ringClient, c, i int) (time.Duration, error) {
	f := (c + i) % ringFleets
	rq := in.reqs[f][(i/ringFleets)%fleetSizes]
	member := in.members[i%ringMembers].base
	start := time.Now()
	a, err := postPartition(rc.c, member, rq)
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	if len(a.ModelGens) != len(rq.ids) || a.Origin == "" {
		return 0, fmt.Errorf("answer lacks generations or origin: %+v", a)
	}
	for j, gen := range a.ModelGens {
		if err := rc.gens.observe(a.Origin, rq.ids[j], gen); err != nil {
			return 0, err
		}
	}
	rc.ok++
	if a.Cached {
		rc.hits++
	}
	if a.Origin != member {
		rc.forwarded++
	}
	if rc.ok%recheckEvery == 0 {
		rc.sampled = append(rc.sampled, sampledAnswer{f, rq.n, a.units(), a.ModelGens})
	}
	return lat, nil
}

func (in *ringInstance) run(d time.Duration, slices int, _ bool) window {
	return closedLoop(len(in.clients), d, slices, func(c, i int) (time.Duration, bool, error) {
		rc := in.clients[c]
		if i%writeEvery == writeEvery-1 {
			// A client writes only the fleets it owns (fleet ≡ client mod 2)
			// and each model goes through one member: one writer per model.
			w := rc.writes
			f := c + 2*(w%(ringFleets/2))
			m := in.fleets[f][(w/(ringFleets/2))%fleetModels]
			start := time.Now()
			err := in.write(rc, m)
			return time.Since(start), true, err
		}
		lat, err := in.read(rc, c, i)
		return lat, false, err
	})
}

// finish recomputes the sampled answers: each must equal partition.FPM over
// the model contents of the generations it claims.
func (in *ringInstance) finish() (attempted, failed int, err error) {
	for _, rc := range in.clients {
		for _, s := range rc.sampled {
			attempted++
			if e := in.recompute(s); e != nil {
				failed++
				if err == nil {
					err = e
				}
			}
		}
		rc.sampled = nil
	}
	return attempted, failed, err
}

func (in *ringInstance) recompute(s sampledAnswer) error {
	devices := make([]partition.Device, fleetModels)
	for j, m := range in.fleets[s.fleet] {
		version, ok := m.gens[s.gens[j]]
		if !ok {
			return fmt.Errorf("model %s: answer claims generation %d, which no write was acknowledged with", m.id, s.gens[j])
		}
		devices[j] = partition.Device{Name: m.id, Model: m.content(version)}
	}
	res, err := partition.FPM(devices, s.n, partition.FPMOptions{})
	if err != nil {
		return err
	}
	for j, u := range res.Units() {
		if u != s.units[j] {
			return fmt.Errorf("fleet %d n=%d at generations %v: served shares %v, recomputed %v", s.fleet, s.n, s.gens, s.units, res.Units())
		}
	}
	return nil
}

func (in *ringInstance) counters() map[string]float64 {
	var ok, hits, forwarded int
	for _, rc := range in.clients {
		ok += rc.ok
		hits += rc.hits
		forwarded += rc.forwarded
	}
	out := map[string]float64{}
	if ok > 0 {
		out["service.hit_ratio"] = float64(hits) / float64(ok)
		out["clusterd.forward_share"] = float64(forwarded) / float64(ok)
	}
	return out
}

// trace re-enacts reads level by level: through a member that does not own
// the key, which forwards; then straight to the owner; then through an
// in-memory handler; then the solve when the handler had to solve.
func (in *ringInstance) trace(tr *tracer, d time.Duration) error {
	// No write happens while tracing, so the in-memory server is filled and
	// warmed once, like the members were.
	shadow, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	h := shadow.Handler()
	for f := range in.fleets {
		// A fleet's requests share one device list: bring it up to the
		// versions the members serve now.
		devices := in.reqs[f][0].devices
		for j, m := range in.fleets[f] {
			devices[j].Model = m.content(m.version - 1)
			if _, err := shadow.Models.Put(m.id, m.content(m.version-1)); err != nil {
				return err
			}
		}
		for _, rq := range in.reqs[f] {
			if _, err := serveInMemory(h, rq.body); err != nil {
				return err
			}
		}
	}
	return traceLoop(len(in.clients), d, func(c, r int) error {
		rc := in.clients[c]
		f := r % ringFleets
		rq := in.reqs[f][(r/ringFleets)%fleetSizes]
		member := in.members[r%ringMembers].base
		var a *answer
		root, err := tr.call("clusterd.member", -1, r, func() (err error) {
			a, err = postPartition(rc.c, member, rq)
			return err
		})
		if err != nil {
			return err
		}
		parent := root
		if a.Origin != member {
			// The member forwarded: what it asked of the owner is the child.
			if parent, err = tr.call("http.partition", root, r, func() error {
				_, err := postPartition(rc.c, a.Origin, rq)
				return err
			}); err != nil {
				return err
			}
		} else {
			// Answered where it arrived: no clusterd hop to account for.
			tr.rename(root, "http.partition")
		}
		return traceHandler(tr, parent, r, h, rq)
	})
}
