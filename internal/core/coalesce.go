// Fan-out-aware transfer coalescing. When Config.Coalesce is on, Get stops
// treating every consumer independently: concurrent Gets of one object to the
// same GPU join a single in-flight transfer, and later consumers pull from
// the nearest registered replica (or chain off a transfer still in flight)
// instead of re-loading the producer GPU's links. An N-way fan-out edge thus
// becomes a multicast chain whose source-link traffic is one copy, not N.
package core

import (
	"grouter/internal/dataplane"
	"grouter/internal/fabric"
	"grouter/internal/obs"
	"grouter/internal/pathsel"
	"grouter/internal/sim"
	"grouter/internal/store"
)

// flight is one in-progress coalesced transfer of an object to dst. Later
// Gets to the same dst wait on fut instead of moving bytes again; Gets to
// other GPUs may chain off it (wait, then pull from dst).
type flight struct {
	dst fabric.Location
	fut *sim.Future[error]
	// chainers counts consumers that chose this flight's destination as their
	// source; source selection uses it to spread chains across copies.
	chainers int
}

// cacheKey addresses one replica cache item: (object, location).
type cacheKey struct {
	id  dataplane.DataID
	loc fabric.Location
}

// initCoalesce wires the coalescing state and the store-drop invalidation
// hooks; called from New when Config.Coalesce is set.
func (pl *Plane) initCoalesce() {
	pl.replicas = store.NewRegistry()
	pl.flights = make(map[dataplane.DataID][]*flight)
	pl.caches = make(map[cacheKey]*store.Item)
	for n := range pl.stores {
		node := n
		pl.stores[node].OnCacheDrop = func(id dataplane.DataID, gpu int) {
			loc := fabric.Location{Node: node, GPU: gpu}
			pl.replicas.Remove(id, loc)
			delete(pl.caches, cacheKey{id: id, loc: loc})
		}
	}
}

// flightTo returns the in-flight transfer of id headed to dst, if any.
func (pl *Plane) flightTo(id dataplane.DataID, dst fabric.Location) *flight {
	for _, fl := range pl.flights[id] {
		if fl.dst == dst {
			return fl
		}
	}
	return nil
}

func (pl *Plane) removeFlight(id dataplane.DataID, fl *flight) {
	fls := pl.flights[id]
	for i, f := range fls {
		if f == fl {
			fls = append(fls[:i], fls[i+1:]...)
			break
		}
	}
	if len(fls) == 0 {
		delete(pl.flights, id)
	} else {
		pl.flights[id] = fls
	}
}

// addReplica registers the freshly-arrived copy of id at dst, backing it with
// a best-effort cache item in dst's store. Registration is skipped when the
// store has no spare room: coalescing never evicts primaries to make space
// for replicas (only other caches), so the transfer simply stays unrecorded.
func (pl *Plane) addReplica(p *sim.Proc, ctx *dataplane.FnCtx, id dataplane.DataID, dst fabric.Location, bytes int64) {
	if dst.IsHost() || pl.replicas.Has(id, dst) {
		return
	}
	it := pl.stores[dst.Node].PutCache(p, id, ctx.Fn, dst.GPU, bytes)
	if it == nil {
		return
	}
	pl.replicas.Add(id, dst)
	pl.caches[cacheKey{id: id, loc: dst}] = it
}

// dropReplicas destroys every replica of id (object freed). Locations are
// visited in the registry's sorted order, so store timelines stay
// deterministic.
func (pl *Plane) dropReplicas(id dataplane.DataID) {
	locs := pl.replicas.Locations(id)
	for len(locs) > 0 {
		loc := locs[0]
		pl.replicas.Remove(id, loc)
		key := cacheKey{id: id, loc: loc}
		if it := pl.caches[key]; it != nil {
			delete(pl.caches, key)
			pl.stores[loc.Node].Drop(it)
		}
		locs = pl.replicas.Locations(id)
	}
}

// crashReplicas invalidates every replica resident on a crashed GPU and
// returns how many were destroyed.
func (pl *Plane) crashReplicas(node, gpu int) int {
	if pl.replicas == nil {
		return 0
	}
	ids := pl.replicas.DropGPU(node, gpu)
	loc := fabric.Location{Node: node, GPU: gpu}
	for _, id := range ids {
		key := cacheKey{id: id, loc: loc}
		if it := pl.caches[key]; it != nil {
			delete(pl.caches, key)
			pl.stores[node].Drop(it)
		}
	}
	return len(ids)
}

// getCoalesced serves one Get with fan-out-aware coalescing. The caller has
// already authenticated the request and paid the lookup latency; span is the
// Get's open trace span (zero when tracing is off).
func (pl *Plane) getCoalesced(p *sim.Proc, ctx *dataplane.FnCtx, ref dataplane.DataRef, r *rec, label string, tr *obs.Tracer, span obs.SpanID) error {
	id, dst := ref.ID, ctx.Loc
	source := func(kind string) {
		if tr != nil {
			tr.SetAttrStr(span, "source", kind)
		}
	}
	mapIn := func() {
		p.Sleep(MapLatency) // zero-copy IPC mapping
		obs.Account(p, obs.CatSetup, MapLatency)
	}

	// 1. Already resident here: the primary itself, or a registered replica.
	if !r.lost && pl.locate(r) == dst {
		if r.it != nil {
			pl.stores[r.node].Touch(r.it, p.Now())
		}
		source("local")
		mapIn()
		return nil
	}
	if !dst.IsHost() && pl.replicas.Has(id, dst) {
		if it := pl.caches[cacheKey{id: id, loc: dst}]; it != nil {
			pl.stores[dst.Node].Touch(it, p.Now())
		}
		pl.stats.Coalesce.LocalHits++
		source("local-replica")
		mapIn()
		return nil
	}

	// 2. A transfer of this object to this destination is already in flight:
	// join it. True dedup — no extra bytes move.
	if fl := pl.flightTo(id, dst); fl != nil {
		pl.stats.Coalesce.Joined++
		source("joined")
		if err := fl.fut.Wait(p); err != nil {
			return err
		}
		mapIn()
		return nil
	}

	// 3. Pick a source among the primary, resident replicas, and in-flight
	// copies we can chain off. The primary goes first so ties favour it.
	var cands []pathsel.SourceCandidate
	var pending []*flight // parallel to cands; nil for resident copies
	primaryIdx := -1
	if !r.lost {
		primaryIdx = len(cands)
		cands = append(cands, pathsel.SourceCandidate{Loc: pl.locate(r)})
		pending = append(pending, nil)
	}
	for _, loc := range pl.replicas.Locations(id) {
		cands = append(cands, pathsel.SourceCandidate{Loc: loc})
		pending = append(pending, nil)
	}
	for _, fl := range pl.flights[id] {
		cands = append(cands, pathsel.SourceCandidate{Loc: fl.dst, Pending: true, Chainers: fl.chainers})
		pending = append(pending, fl)
	}

	if len(cands) == 0 {
		// Crash-lost with no surviving copies anywhere: re-materialize from
		// the durable origin, then fall through to a plain origin pull.
		if err := pl.rematerialize(p, r); err != nil {
			return err
		}
		primaryIdx = 0
		cands = append(cands, pathsel.SourceCandidate{Loc: pl.locate(r)})
		pending = append(pending, nil)
	}
	choice := pathsel.ChooseSource(pl.f, dst, cands)
	src, upstream := cands[choice].Loc, pending[choice]

	// Announce our own transfer before any waiting, so later Gets to dst join
	// it and Gets elsewhere can chain off it. Chains are acyclic: a flight
	// only ever waits on flights that existed before it.
	fl := &flight{dst: dst, fut: sim.NewFuture[error](pl.f.Engine)}
	pl.flights[id] = append(pl.flights[id], fl)
	var moveErr error
	defer func() {
		fl.fut.Resolve(moveErr)
		pl.removeFlight(id, fl)
	}()

	kind := "origin"
	switch {
	case upstream != nil:
		upstream.chainers++
		if err := upstream.fut.Wait(p); err == nil {
			kind = "chained"
			pl.stats.Coalesce.Chained++
		} else {
			// The copy we meant to chain off never arrived; fall back to the
			// primary, re-materializing it first if a crash took it too.
			if r.lost {
				if moveErr = pl.rematerialize(p, r); moveErr != nil {
					return moveErr
				}
			}
			src = pl.locate(r)
		}
	case choice != primaryIdx:
		kind = "replica"
		pl.stats.Coalesce.ReplicaHits++
	}

	if kind == "origin" {
		if r.it != nil {
			pl.stores[r.node].Touch(r.it, p.Now())
		}
		pl.stats.Coalesce.OriginGets++
	}
	source(kind)
	if moveErr = pl.move(p, ctx, src, dst, r.bytes, label); moveErr != nil {
		return moveErr
	}
	if kind == "origin" {
		pl.stats.Coalesce.OriginBytes += r.bytes
	} else {
		pl.stats.Coalesce.ReplicaBytes += r.bytes
	}
	pl.addReplica(p, ctx, id, dst, r.bytes)
	return nil
}
