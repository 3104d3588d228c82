package pimsim

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Mem is a byte-addressable simulated memory (an MRAM bank or a WRAM
// scratchpad). Backing storage grows on demand so that instantiating
// thousands of DPUs with 64-MB banks does not reserve host memory up
// front. All multi-byte accesses are little-endian, matching the UPMEM
// DPU.
type Mem struct {
	name  string
	size  int // architectural capacity in bytes
	data  []byte
	brk   int // bump-allocator high-water mark
	align int // minimum allocation alignment
}

// NewMem creates a memory of the given architectural size. align is
// the minimum allocation alignment (8 for MRAM, matching the DPU's
// 8-byte DMA granularity; 4 for WRAM).
func NewMem(name string, size, align int) *Mem {
	if size <= 0 {
		panic("pimsim: memory size must be positive")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic("pimsim: alignment must be a positive power of two")
	}
	return &Mem{name: name, size: size, align: align}
}

// Name returns the memory's name (for diagnostics).
func (m *Mem) Name() string { return m.name }

// Size returns the architectural capacity in bytes.
func (m *Mem) Size() int { return m.size }

// Used returns the number of bytes currently allocated.
func (m *Mem) Used() int { return m.brk }

// Free returns the number of unallocated bytes.
func (m *Mem) Free() int { return m.size - m.brk }

// Alloc reserves n bytes and returns the base address. It returns an
// error when the memory is exhausted — the situation the paper
// describes when LUT sizes outgrow the scratchpad (§4.2.1 observation
// 4) or compete with operand arrays in the DRAM bank (§4.2.3).
func (m *Mem) Alloc(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("pimsim: negative allocation in %s", m.name)
	}
	base := (m.brk + m.align - 1) &^ (m.align - 1)
	if base+n > m.size {
		return 0, fmt.Errorf("pimsim: %s exhausted: need %d bytes at %d, capacity %d",
			m.name, n, base, m.size)
	}
	m.brk = base + n
	return base, nil
}

// MustAlloc is Alloc but panics on exhaustion; for setup code whose
// sizes were already validated.
func (m *Mem) MustAlloc(n int) int {
	a, err := m.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Rollback frees every allocation made since Used returned mark and
// zeroes the bytes they held, so a setup that fails part-way leaves
// the memory as it found it.
func (m *Mem) Rollback(mark int) {
	if mark < 0 || mark > m.brk {
		panic(fmt.Sprintf("pimsim: %s rollback to %d outside [0, %d]", m.name, mark, m.brk))
	}
	if end := min(m.brk, len(m.data)); mark < end {
		clear(m.data[mark:end])
	}
	m.brk = mark
}

// Reset frees all allocations and zeroes the backing store. Only the
// region up to the allocator high-water mark can hold allocated data,
// but raw Write/Put calls may have touched bytes beyond it, so the
// backing store is truncated to the high-water mark: anything past it
// is re-zeroed by ensure on the next growth.
func (m *Mem) Reset() {
	n := m.brk
	if n > len(m.data) {
		n = len(m.data)
	}
	clear(m.data[:n])
	m.data = m.data[:n]
	m.brk = 0
}

// ensure makes the backing store cover [0, end). It is small enough to
// inline into every scalar access; growth happens out of line.
func (m *Mem) ensure(end int) {
	if end > len(m.data) {
		m.grow(end)
	}
}

// grow extends the backing store to cover [0, end), panicking on an
// access past the architectural capacity (len(m.data) never exceeds it).
func (m *Mem) grow(end int) {
	if end > m.size {
		panic(fmt.Sprintf("pimsim: %s access at %d beyond capacity %d", m.name, end, m.size))
	}
	grown := make([]byte, roundUp(end, 4096))
	if len(grown) > m.size {
		grown = grown[:m.size]
	}
	copy(grown, m.data)
	m.data = grown
}

func roundUp(v, to int) int { return (v + to - 1) / to * to }

// Write copies raw bytes into memory at addr.
func (m *Mem) Write(addr int, p []byte) {
	m.ensure(addr + len(p))
	copy(m.data[addr:], p)
}

// Read copies len(p) raw bytes out of memory at addr.
func (m *Mem) Read(addr int, p []byte) {
	m.ensure(addr + len(p))
	copy(p, m.data[addr:])
}

// View returns the n bytes at addr as a slice of the backing store, for
// a kernel that reads a resident table many times in one call. The
// slice aliases the memory only until its next growth, so take one per
// call rather than keeping it.
func (m *Mem) View(addr, n int) []byte {
	m.ensure(addr + n)
	return m.data[addr : addr+n : addr+n]
}

// PutUint32 stores a 32-bit word.
func (m *Mem) PutUint32(addr int, v uint32) {
	m.ensure(addr + 4)
	binary.LittleEndian.PutUint32(m.data[addr:], v)
}

// Uint32 loads a 32-bit word.
func (m *Mem) Uint32(addr int) uint32 {
	m.ensure(addr + 4)
	return binary.LittleEndian.Uint32(m.data[addr:])
}

// PutUint64 stores a 64-bit word.
func (m *Mem) PutUint64(addr int, v uint64) {
	m.ensure(addr + 8)
	binary.LittleEndian.PutUint64(m.data[addr:], v)
}

// Uint64 loads a 64-bit word.
func (m *Mem) Uint64(addr int) uint64 {
	m.ensure(addr + 8)
	return binary.LittleEndian.Uint64(m.data[addr:])
}

// PutFloat32 stores an IEEE-754 single.
func (m *Mem) PutFloat32(addr int, v float32) { m.PutUint32(addr, math.Float32bits(v)) }

// Float32 loads an IEEE-754 single.
func (m *Mem) Float32(addr int) float32 { return math.Float32frombits(m.Uint32(addr)) }

// PutInt32 stores a 32-bit signed integer.
func (m *Mem) PutInt32(addr int, v int32) { m.PutUint32(addr, uint32(v)) }

// Int32 loads a 32-bit signed integer.
func (m *Mem) Int32(addr int) int32 { return int32(m.Uint32(addr)) }

// PutInt64 stores a 64-bit signed integer.
func (m *Mem) PutInt64(addr int, v int64) { m.PutUint64(addr, uint64(v)) }

// Int64 loads a 64-bit signed integer.
func (m *Mem) Int64(addr int) int64 { return int64(m.Uint64(addr)) }

// WriteInt32s bulk-stores an int32 slice starting at addr.
func (m *Mem) WriteInt32s(addr int, vs []int32) {
	m.ensure(addr + 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(m.data[addr+4*i:], uint32(v))
	}
}

// ReadInt32s bulk-loads len(out) int32 values starting at addr.
func (m *Mem) ReadInt32s(addr int, out []int32) {
	m.ensure(addr + 4*len(out))
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(m.data[addr+4*i:]))
	}
}

// WriteInt64s bulk-stores an int64 slice starting at addr.
func (m *Mem) WriteInt64s(addr int, vs []int64) {
	m.ensure(addr + 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(m.data[addr+8*i:], uint64(v))
	}
}
