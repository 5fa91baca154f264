//go:build unix && !race

package gmac_test

import (
	"bytes"
	"testing"

	"repro/gmac"
	"repro/internal/core"
	"repro/internal/testutil"
	"repro/machine"
)

// TestFortyTestbedsStaySmall builds the paper's 1 GiB testbed forty times
// in one process, as an experiment sweep does, moves 8 MiB through each
// device and drops it unclosed. Device memory costs what is touched and no
// registry pins the contexts once nothing serves them, so the process
// never comes near the 40 GiB it has been handed.
func TestFortyTestbedsStaySmall(t *testing.T) {
	const objBytes = 8 << 20
	buf := bytes.Repeat([]byte{0xa5}, objBytes)
	for i := 0; i < 40; i++ {
		ctx, err := gmac.NewContext(machine.PaperTestbed(), gmac.Config{Protocol: gmac.LazyUpdate})
		if err != nil {
			t.Fatal(err)
		}
		ctx.Register(func() *gmac.Kernel {
			return &gmac.Kernel{Name: "nop", Run: func(*gmac.DeviceMemory, []uint64) {}}
		})
		p, err := ctx.Alloc(objBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.HostWrite(p, buf); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Call("nop", []uint64{uint64(p)}); err != nil { // releases the object to the device
			t.Fatal(err)
		}
		if got := ctx.Stats().BytesH2D; got < objBytes {
			t.Fatalf("testbed %d: only %d bytes reached device memory", i, got)
		}
	}
	if n := len(core.RecentManagers()); n != 0 {
		t.Fatalf("%d managers retained with no introspection endpoint serving", n)
	}
	rssMiB := testutil.MaxRSSMiB(t)
	t.Logf("peak RSS %d MiB", rssMiB)
	if rssMiB >= 1024 {
		t.Fatalf("peak RSS %d MiB after 40 testbeds, want < 1024", rssMiB)
	}
}
