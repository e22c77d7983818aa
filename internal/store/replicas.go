// Replica registry: the bookkeeping half of fan-out-aware transfer
// coalescing. Every time a consumer Get materializes an object's bytes on a
// GPU, the data plane may register that copy here; later consumers of the
// same object can then pull from the nearest fresh replica instead of
// re-loading the producer GPU's links.
//
// The registry is metadata only — replica bytes are held as cache items in
// the per-node Managers (see PutCache), which is what ties invalidation into
// the existing fault paths: store eviction pressure drops cache items (and
// notifies the plane via OnCacheDrop), and GPU crashes destroy them like any
// other resident object.
//
// Invariants:
//   - a registered location never duplicates within one object's set;
//   - locations are kept sorted (node, then GPU), so iteration order — and
//     therefore replica-aware source selection — is deterministic;
//   - only GPU locations are registered (host copies are the primary's
//     eviction home, not replicas);
//   - an entry is removed the moment its backing bytes become unusable:
//     object freed, cache item evicted, or GPU crashed.
package store

import (
	"slices"

	"grouter/internal/dataplane"
	"grouter/internal/fabric"
)

// Registry records the live GPU-resident copies of data objects.
type Registry struct {
	locs map[dataplane.DataID][]fabric.Location
	// free holds the emptied location lists of objects with no copy left;
	// an object's first Add reuses one, so registering copies allocates
	// nothing once the registry has warmed up.
	free [][]fabric.Location
}

// NewRegistry returns an empty replica registry.
func NewRegistry() *Registry {
	return &Registry{locs: make(map[dataplane.DataID][]fabric.Location)}
}

func locLess(a, b fabric.Location) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.GPU < b.GPU
}

// Add registers a live copy of id at loc, in sorted position. Host
// locations and duplicates are ignored.
func (r *Registry) Add(id dataplane.DataID, loc fabric.Location) {
	if loc.IsHost() || r.Has(id, loc) {
		return
	}
	ls, ok := r.locs[id]
	if !ok {
		if n := len(r.free); n > 0 {
			ls = r.free[n-1]
			r.free[n-1] = nil
			r.free = r.free[:n-1]
		}
	}
	i := 0
	for i < len(ls) && locLess(ls[i], loc) {
		i++
	}
	r.locs[id] = slices.Insert(ls, i, loc)
}

// drop forgets id and keeps its emptied list for reuse.
func (r *Registry) drop(id dataplane.DataID, ls []fabric.Location) {
	delete(r.locs, id)
	r.free = append(r.free, ls[:0])
}

// Has reports whether a copy of id is registered at loc.
func (r *Registry) Has(id dataplane.DataID, loc fabric.Location) bool {
	for _, l := range r.locs[id] {
		if l == loc {
			return true
		}
	}
	return false
}

// Remove drops the copy of id at loc, if registered.
func (r *Registry) Remove(id dataplane.DataID, loc fabric.Location) {
	ls := r.locs[id]
	for i, l := range ls {
		if l == loc {
			ls = slices.Delete(ls, i, i+1)
			if len(ls) == 0 {
				r.drop(id, ls)
			} else {
				r.locs[id] = ls
			}
			return
		}
	}
}

// DropGPU removes every copy resident on the given GPU (crash invalidation)
// and returns the affected object IDs in ascending order.
func (r *Registry) DropGPU(node, gpu int) []dataplane.DataID {
	var ids []dataplane.DataID
	loc := fabric.Location{Node: node, GPU: gpu}
	for id := range r.locs {
		if r.Has(id, loc) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		r.Remove(id, loc)
	}
	return ids
}

// Locations returns id's registered copies in deterministic (node, GPU)
// order. The returned slice is shared and valid until the next Add, Remove
// or DropGPU; callers must not mutate it.
func (r *Registry) Locations(id dataplane.DataID) []fabric.Location {
	return r.locs[id]
}

// Count returns the number of registered copies of id.
func (r *Registry) Count(id dataplane.DataID) int { return len(r.locs[id]) }

// Len returns the number of objects with at least one registered copy.
func (r *Registry) Len() int { return len(r.locs) }
