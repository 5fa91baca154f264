// Package mem is a stand-in for repro/internal/mem: it declares the address
// type the gmac stub's Ptr aliases, as the real gmac.Ptr aliases mem.Addr.
package mem

// Addr is an address in a simulated address space.
type Addr uint64
