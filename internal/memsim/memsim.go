// Package memsim models device (GPU) and host memory: capacity accounting,
// raw allocations with cudaMalloc-like latency, reusable memory pools with
// µs-level suballocation, and byte-granular gates for shared pinned staging
// buffers.
//
// The package tracks bytes only — there is no backing storage. That is all
// the data-plane logic needs: placement, eviction, and elasticity decisions
// are driven by byte counts and allocation latencies.
package memsim

import (
	"errors"
	"fmt"
	"time"

	"grouter/internal/sim"
)

// Allocation latencies observed on real CUDA stacks and used by the paper's
// argument for pooling (§4.4.1): a native cudaMalloc is millisecond-level,
// pool suballocation is microsecond-level.
const (
	// RawAllocLatency is the cost of a native device allocation.
	RawAllocLatency = 1 * time.Millisecond
	// PoolAllocLatency is the cost of suballocating from a warm pool.
	PoolAllocLatency = 10 * time.Microsecond
)

// ErrOutOfMemory is returned when a device cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("memsim: out of memory")

// Device is one memory device (a GPU's HBM or the host's DRAM).
type Device struct {
	Name     string
	Capacity int64

	used int64
	peak int64
}

// NewDevice returns a device with the given capacity in bytes.
func NewDevice(name string, capacity int64) *Device {
	if capacity <= 0 {
		panic(fmt.Sprintf("memsim: device %s capacity %d", name, capacity))
	}
	return &Device{Name: name, Capacity: capacity}
}

// Used returns the allocated byte count.
func (d *Device) Used() int64 { return d.used }

// Free returns the unallocated byte count.
func (d *Device) Free() int64 { return d.Capacity - d.used }

// Peak returns the high-water mark of allocated bytes.
func (d *Device) Peak() int64 { return d.peak }

// Alloc reserves size bytes, or returns ErrOutOfMemory.
func (d *Device) Alloc(size int64) (*Block, error) {
	var b Block
	if err := d.AllocInto(&b, size); err != nil {
		return nil, err
	}
	return &b, nil
}

// AllocInto reserves size bytes into b, a Block its caller owns, or returns
// ErrOutOfMemory and leaves b unchanged. A Block embedded in a pooled object
// makes the reservation allocation-free. b must not hold a reservation.
func (d *Device) AllocInto(b *Block, size int64) error {
	if size < 0 {
		panic(fmt.Sprintf("memsim: negative allocation %d on %s", size, d.Name))
	}
	if b.Held() {
		panic("memsim: allocation into a block that holds a reservation")
	}
	if d.used+size > d.Capacity {
		return fmt.Errorf("%w: %s needs %d, free %d", ErrOutOfMemory, d.Name, size, d.Free())
	}
	d.used += size
	if d.used > d.peak {
		d.peak = d.used
	}
	*b = Block{dev: d, size: size}
	return nil
}

// Block is one reservation on a device. A Block is a value: assigning it
// hands the reservation to the new variable, and only one of the two may
// free it.
type Block struct {
	dev   *Device
	size  int64
	freed bool
}

// Held reports whether b holds a reservation it has not freed.
func (b *Block) Held() bool { return b.dev != nil && !b.freed }

// Device returns the owning device.
func (b *Block) Device() *Device { return b.dev }

// Free releases the block. Double-free panics: it is always a bug.
func (b *Block) Free() {
	if b.freed {
		panic("memsim: double free")
	}
	b.freed = true
	b.dev.used -= b.size
}

// Pool is a growable region of device memory from which data items are
// suballocated without touching the native allocator. Reserved-but-unused
// bytes are the "memory bloat" the paper's elastic storage eliminates.
type Pool struct {
	dev      *Device
	reserved int64
	used     int64
	// Quantum rounds cold grows up to block granularity, so a burst of
	// allocations pays one native allocation instead of one per item
	// (PyTorch-style block growth). Zero grows exactly to need.
	Quantum int64
}

// NewPool returns an empty pool on dev.
func NewPool(dev *Device) *Pool { return &Pool{dev: dev} }

// Device returns the pool's device.
func (p *Pool) Device() *Device { return p.dev }

// Reserved returns the bytes held from the device (used + idle).
func (p *Pool) Reserved() int64 { return p.reserved }

// Used returns the bytes suballocated to live data.
func (p *Pool) Used() int64 { return p.used }

// Idle returns reserved bytes not backing live data.
func (p *Pool) Idle() int64 { return p.reserved - p.used }

// Grow reserves size more bytes from the device.
func (p *Pool) Grow(size int64) error {
	if size < 0 {
		panic("memsim: negative pool grow")
	}
	if p.dev.used+size > p.dev.Capacity {
		return fmt.Errorf("%w: pool grow %d on %s, free %d", ErrOutOfMemory, size, p.dev.Name, p.dev.Free())
	}
	p.dev.used += size
	if p.dev.used > p.dev.peak {
		p.dev.peak = p.dev.used
	}
	p.reserved += size
	return nil
}

// Shrink returns idle bytes to the device, at most the requested size.
// It returns the bytes actually released.
func (p *Pool) Shrink(size int64) int64 {
	if size < 0 {
		panic("memsim: negative pool shrink")
	}
	idle := p.Idle()
	if size > idle {
		size = idle
	}
	p.reserved -= size
	p.dev.used -= size
	return size
}

// Alloc suballocates from the pool, growing it if needed. It reports whether
// the allocation hit the warm pool (true) or required a native grow (false),
// so callers can charge the right latency.
func (p *Pool) Alloc(size int64) (warm bool, err error) {
	if size < 0 {
		panic("memsim: negative pool alloc")
	}
	if p.used+size <= p.reserved {
		p.used += size
		return true, nil
	}
	need := p.used + size - p.reserved
	if p.Quantum > need {
		// Round up to the block quantum when the device has room.
		if extra := p.Quantum; p.dev.used+extra <= p.dev.Capacity {
			need = extra
		}
	}
	if err := p.Grow(need); err != nil {
		return false, err
	}
	p.used += size
	return false, nil
}

// Release returns size suballocated bytes to the pool (they stay reserved).
func (p *Pool) Release(size int64) {
	if size < 0 || size > p.used {
		panic(fmt.Sprintf("memsim: pool release %d with used %d", size, p.used))
	}
	p.used -= size
}

// ByteGate is a FIFO byte-granular semaphore, used to model a fixed circular
// pinned staging buffer shared by concurrent transfers: acquiring more bytes
// than are free blocks the caller until earlier users release.
type ByteGate struct {
	capacity int64
	inUse    int64
	waiters  []*gateWaiter
}

// gateWaiter is one blocked acquirer, parked on ready until its bytes fit.
type gateWaiter struct {
	ready sim.Signal
	want  int64
}

// NewByteGate returns a gate with the given byte capacity.
func NewByteGate(capacity int64) *ByteGate {
	if capacity <= 0 {
		panic("memsim: byte gate capacity must be positive")
	}
	return &ByteGate{capacity: capacity}
}

// Capacity returns the gate's total bytes.
func (g *ByteGate) Capacity() int64 { return g.capacity }

// InUse returns the currently held bytes.
func (g *ByteGate) InUse() int64 { return g.inUse }

// Acquire takes want bytes, suspending p until available. Requests larger
// than the capacity are clamped to the capacity (a transfer bigger than the
// staging buffer cycles through it; the caller models that by acquiring at
// most the buffer size at a time).
func (g *ByteGate) Acquire(p *sim.Proc, want int64) int64 {
	if want <= 0 {
		return 0
	}
	if want > g.capacity {
		want = g.capacity
	}
	// FIFO: block behind earlier waiters even if our request would fit.
	if len(g.waiters) == 0 && g.inUse+want <= g.capacity {
		g.inUse += want
		return want
	}
	w := &gateWaiter{want: want}
	g.waiters = append(g.waiters, w)
	w.ready.Wait(p)
	return want
}

// Release returns bytes to the gate and wakes waiters whose requests now fit
// (in FIFO order).
func (g *ByteGate) Release(bytes int64) {
	if bytes < 0 || bytes > g.inUse {
		panic(fmt.Sprintf("memsim: gate release %d with inUse %d", bytes, g.inUse))
	}
	g.inUse -= bytes
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		if g.inUse+w.want > g.capacity {
			break
		}
		g.inUse += w.want
		g.waiters = g.waiters[1:]
		w.ready.Fire()
	}
}
