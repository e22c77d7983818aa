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
// Gets to the same dst wait on done instead of moving bytes again; Gets to
// other GPUs may chain off it (wait, then pull from dst). Flights are pooled
// on the plane: one returns to the free list once its owner has resolved it
// and every waiter has read err.
type flight struct {
	dst  fabric.Location
	done sim.Signal
	err  error // the transfer's result, set before done fires
	// chainers counts consumers that chose this flight's destination as their
	// source; source selection uses it to spread chains across copies.
	chainers int
	// waiters counts Gets blocked on done that have not yet read err.
	waiters int
	// next links the object's in-flight transfers in creation order.
	next *flight
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
	pl.flights = make(map[dataplane.DataID]*flight)
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
	for fl := pl.flights[id]; fl != nil; fl = fl.next {
		if fl.dst == dst {
			return fl
		}
	}
	return nil
}

// startFlight announces a transfer of id to dst: it takes a flight off the
// free list and appends it to id's in-flight list.
func (pl *Plane) startFlight(id dataplane.DataID, dst fabric.Location) *flight {
	var fl *flight
	if n := len(pl.freeFlights); n > 0 {
		fl = pl.freeFlights[n-1]
		pl.freeFlights[n-1] = nil
		pl.freeFlights = pl.freeFlights[:n-1]
	} else {
		fl = &flight{done: sim.MakeSignal(pl.f.Engine)}
	}
	fl.dst = dst
	tail := pl.flights[id]
	if tail == nil {
		pl.flights[id] = fl
		return fl
	}
	for tail.next != nil {
		tail = tail.next
	}
	tail.next = fl
	return fl
}

// finishFlight resolves fl with the transfer's result, waking its waiters,
// and unlinks it from id's in-flight list.
func (pl *Plane) finishFlight(id dataplane.DataID, fl *flight, err error) {
	fl.err = err
	fl.done.Fire()
	if head := pl.flights[id]; head == fl {
		if fl.next == nil {
			delete(pl.flights, id)
		} else {
			pl.flights[id] = fl.next
		}
	} else {
		for prev := head; prev != nil; prev = prev.next {
			if prev.next == fl {
				prev.next = fl.next
				break
			}
		}
	}
	fl.next = nil
	pl.putFlight(fl)
}

// await blocks until fl resolves and returns its result.
func (pl *Plane) await(p *sim.Proc, fl *flight) error {
	fl.waiters++
	fl.done.Wait(p)
	err := fl.err
	fl.waiters--
	pl.putFlight(fl)
	return err
}

// putFlight returns a resolved flight to the free list once no waiter still
// has to read its result. Both the owner (after finishFlight) and each
// waiter (after reading) call it; the last of them recycles the flight.
func (pl *Plane) putFlight(fl *flight) {
	if fl.waiters > 0 || !fl.done.Fired() {
		return
	}
	fl.done.Reset()
	fl.err = nil
	fl.chainers = 0
	pl.freeFlights = append(pl.freeFlights, fl)
}

// addReplica registers the freshly-arrived copy of id at dst, backing it with
// a best-effort cache item in dst's store. Registration is skipped when the
// store has no spare room: coalescing never evicts primaries to make space
// for replicas (only other caches), so the transfer simply stays unrecorded.
// When the object is freed while the cache item is allocated, the item is
// dropped, nothing is registered, and the Get fails with errFreed.
func (pl *Plane) addReplica(p *sim.Proc, ctx *dataplane.FnCtx, id dataplane.DataID, r *rec, dst fabric.Location, bytes int64) error {
	if dst.IsHost() || pl.replicas.Has(id, dst) {
		return nil
	}
	it := pl.stores[dst.Node].PutCache(p, id, ctx.Fn, dst.GPU, bytes)
	if !pl.live(id, r) {
		if it != nil {
			pl.stores[dst.Node].Drop(it)
		}
		return errFreed(id)
	}
	if it == nil {
		return nil
	}
	pl.replicas.Add(id, dst)
	pl.caches[cacheKey{id: id, loc: dst}] = it
	return nil
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
// already authenticated the request, paid the lookup latency and checked
// that the object is still stored; span is the Get's open trace span (zero
// when tracing is off). Like Get, it re-checks the object after every yield.
func (pl *Plane) getCoalesced(p *sim.Proc, ctx *dataplane.FnCtx, ref dataplane.DataRef, r *rec, label string, tr *obs.Tracer, span obs.SpanID) error {
	id, dst := ref.ID, ctx.Loc
	source := func(kind string) {
		if tr != nil {
			tr.SetAttrStr(span, "source", kind)
		}
	}

	// 1. Already resident here: the primary itself, or a registered replica.
	if !r.lost && pl.locate(r) == dst {
		if r.it != nil {
			pl.stores[r.node].Touch(r.it, p.Now())
		}
		source("local")
		return pl.mapIn(p, id, r)
	}
	if !dst.IsHost() && pl.replicas.Has(id, dst) {
		if it := pl.caches[cacheKey{id: id, loc: dst}]; it != nil {
			pl.stores[dst.Node].Touch(it, p.Now())
		}
		pl.stats.Coalesce.LocalHits++
		source("local-replica")
		return pl.mapIn(p, id, r)
	}

	// 2. A transfer of this object to this destination is already in flight:
	// join it. True dedup — no extra bytes move.
	if fl := pl.flightTo(id, dst); fl != nil {
		pl.stats.Coalesce.Joined++
		source("joined")
		if err := pl.await(p, fl); err != nil {
			return err
		}
		return pl.mapIn(p, id, r)
	}

	// 3. Pick a source among the primary, resident replicas, and in-flight
	// copies we can chain off. The primary goes first so ties favour it.
	// The candidates are built in the plane's scratch (pending parallels
	// cands; nil for resident copies).
	cands, pending := pl.cands[:0], pl.pending[:0]
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
	for fl := pl.flights[id]; fl != nil; fl = fl.next {
		cands = append(cands, pathsel.SourceCandidate{Loc: fl.dst, Pending: true, Chainers: fl.chainers})
		pending = append(pending, fl)
	}

	if len(cands) == 0 {
		// Crash-lost with no surviving copies anywhere: re-materialize from
		// the durable origin, then fall through to a plain origin pull.
		if err := pl.rematerialize(p, id, r); err != nil {
			return err
		}
		// Other Gets may have used the scratch while this one slept.
		cands, pending = pl.cands[:0], pl.pending[:0]
		primaryIdx = 0
		cands = append(cands, pathsel.SourceCandidate{Loc: pl.locate(r)})
		pending = append(pending, nil)
	}
	choice := pathsel.ChooseSource(pl.f, dst, cands)
	src, upstream := cands[choice].Loc, pending[choice]
	pl.cands, pl.pending = cands, pending

	// Announce our own transfer before any waiting, so later Gets to dst join
	// it and Gets elsewhere can chain off it. Chains are acyclic: a flight
	// only ever waits on flights that existed before it.
	fl := pl.startFlight(id, dst)
	err := pl.pull(p, ctx, id, r, src, upstream, choice != primaryIdx, label, source)
	pl.finishFlight(id, fl, err)
	return err
}

// pull moves the object to the consumer for getCoalesced from the chosen
// source — chaining off upstream when it is an in-flight copy, from a
// replica, or from the primary — and registers the arrived copy.
func (pl *Plane) pull(p *sim.Proc, ctx *dataplane.FnCtx, id dataplane.DataID, r *rec, src fabric.Location, upstream *flight, replica bool, label string, source func(string)) error {
	kind := "origin"
	switch {
	case upstream != nil:
		upstream.chainers++
		upErr := pl.await(p, upstream)
		if !pl.live(id, r) {
			return errFreed(id)
		}
		if upErr == nil {
			kind = "chained"
			pl.stats.Coalesce.Chained++
		} else {
			// The copy we meant to chain off never arrived; fall back to the
			// primary, re-materializing it first if a crash took it too.
			if r.lost {
				if err := pl.rematerialize(p, id, r); err != nil {
					return err
				}
			}
			src = pl.locate(r)
		}
	case replica:
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
	dst, bytes := ctx.Loc, r.bytes
	if src == dst {
		// The primary came back at the consumer itself: re-materialized into
		// a host consumer's memory, or restored to its GPU while this Get
		// waited on a copy that failed.
		return pl.mapIn(p, id, r)
	}
	if err := pl.move(p, ctx, src, dst, bytes, label); err != nil {
		return err
	}
	if !pl.live(id, r) {
		return errFreed(id)
	}
	if kind == "origin" {
		pl.stats.Coalesce.OriginBytes += bytes
	} else {
		pl.stats.Coalesce.ReplicaBytes += bytes
	}
	return pl.addReplica(p, ctx, id, r, dst, bytes)
}
