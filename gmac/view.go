package gmac

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hostmmu"
)

// Float32View is a typed CPU-side window onto a shared float32 array. Every
// access goes through the host MMU, so protection faults fire exactly where
// a compiled load or store would fault in the real GMAC: the first read of
// Invalid data and the first write to ReadOnly data.
//
// Element accessors (At/Set) fault per touched block, like scalar code;
// the bulk accessors (Fill/Sum) also use the faulting path — use the
// session's Memcpy*/Memset interposition to take the accelerator-copy
// shortcut instead.
//
// Views work over any Session: a view built from a MultiContext routes its
// accesses to the device hosting the object.
//
// A view is invalid after its object is freed: it holds the address, not
// the object, and a later allocation may reuse both the address and the
// host memory behind it, which the stale view would then read and write.
type Float32View struct {
	s    *sessionCore
	addr Ptr
	n    int64
}

// Float32s returns a view of n float32 elements starting at p. The range
// must lie inside one shared object.
func (s *sessionCore) Float32s(p Ptr, n int64) (Float32View, error) {
	if n < 0 {
		return Float32View{}, fmt.Errorf("gmac: negative view length %d", n)
	}
	if err := s.inObject(p, n*4); err != nil {
		return Float32View{}, err
	}
	return Float32View{s: s, addr: p, n: n}, nil
}

func (v Float32View) elemAddr(i int64) Ptr {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("gmac: index %d out of range [0,%d)", i, v.n))
	}
	return v.addr + Ptr(i*4)
}

// At returns element i, faulting the containing block in if necessary.
func (v Float32View) At(i int64) float32 {
	b, err := v.s.hostBytes(v.elemAddr(i), 4, hostmmu.AccessRead)
	if err != nil {
		panic(fmt.Sprintf("gmac: read of shared element failed: %v", err))
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}

// Set stores x into element i, faulting as necessary. A four-byte aligned
// store never crosses a block boundary, so the single-block hostBytes write
// path is safe here.
func (v Float32View) Set(i int64, x float32) {
	b, err := v.s.hostBytes(v.elemAddr(i), 4, hostmmu.AccessWrite)
	if err != nil {
		panic(fmt.Sprintf("gmac: write of shared element failed: %v", err))
	}
	binary.LittleEndian.PutUint32(b, math.Float32bits(x))
}

// Fill sets every element to x.
func (v Float32View) Fill(x float32) error {
	buf := make([]byte, v.n*4)
	bits := math.Float32bits(x)
	for i := int64(0); i < v.n; i++ {
		binary.LittleEndian.PutUint32(buf[i*4:], bits)
	}
	if err := v.s.HostWrite(v.addr, buf); err != nil {
		return err
	}
	v.s.m.CPUTouch(v.n * 4)
	return nil
}

// Sum reduces the view on the CPU (reads fault blocks in as needed) and
// charges the scan to the CPU breakdown slice.
func (v Float32View) Sum() (float64, error) {
	b, err := v.s.hostBytes(v.addr, v.n*4, hostmmu.AccessRead)
	if err != nil {
		return 0, err
	}
	var s float64
	for i := int64(0); i < v.n; i++ {
		s += float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
	}
	v.s.m.CPUTouch(v.n * 4)
	return s, nil
}
