// Package modeprobe breaks the gmac host contract three ways against the
// real repro/gmac, whose Ptr is an alias of mem.Addr. It lives under
// testdata so `go vet ./...` and `make vet` never see it;
// TestModecheckOnRealGmac vets it by path.
package modeprobe

import "repro/gmac"

// Probe host-writes a ReadOnly object, host-reads an unwritten WriteOnly
// one, and reads an async kernel's output before Sync.
func Probe(s *gmac.Context, buf []byte) {
	ro, _ := s.Alloc(64, gmac.Mode(gmac.ReadOnly))
	_ = s.HostWrite(ro, buf)
	wo, _ := s.Alloc(64, gmac.Mode(gmac.WriteOnly))
	_ = s.HostRead(wo, buf)
	p, _ := s.Alloc(64)
	_ = s.Call("k", nil, gmac.Async())
	_ = s.HostRead(p, buf)
	_ = s.Sync()
}
