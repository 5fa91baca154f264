package figures

import (
	"errors"
	"fmt"

	"repro/gmac"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/machine"
)

// This file implements the paper's suggested extensions as measurable
// ablations: kernel write-set annotations (§4.3), hardware peer DMA (§5.1,
// §7), and accelerator virtual memory (§4.2, §7).

// AblationAnnotations measures the §4.3 deficiency and its fix: a kernel
// that only reads a large shared table still forces the CPU to re-fetch
// the table after every call — unless the call is annotated with its
// write set.
func AblationAnnotations() (*Table, error) {
	const (
		tableBytes = 16 << 20
		outBytes   = 64 << 10
		sliceBytes = 1 << 20
		iters      = 16
	)
	run := func(annotated bool) (sim.Time, int64, error) {
		m := machine.PaperTestbed()
		defer m.Close()
		ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate})
		if err != nil {
			return 0, 0, err
		}
		ctx.Register(func() *gmac.Kernel {
			return &gmac.Kernel{
				Name: "ablate.scan",
				// args: tablePtr, outPtr — reduces the table into out.
				Run: func(dev *gmac.DeviceMemory, args []uint64) {
					table, out := gmac.Ptr(args[0]), gmac.Ptr(args[1])
					var acc uint32
					for off := int64(0); off < tableBytes; off += 4096 {
						acc += dev.Uint32(table + gmac.Ptr(off))
					}
					dev.SetUint32(out, acc)
				},
				Cost: func([]uint64) (float64, int64) { return tableBytes / 4, tableBytes },
			}
		})
		table, err := ctx.Alloc(tableBytes)
		if err != nil {
			return 0, 0, err
		}
		out, err := ctx.Alloc(outBytes)
		if err != nil {
			return 0, 0, err
		}
		if err := ctx.Memset(table, 0x11, tableBytes); err != nil {
			return 0, 0, err
		}
		start := m.Elapsed()
		slice := make([]byte, sliceBytes)
		small := make([]byte, outBytes)
		for i := 0; i < iters; i++ {
			var callErr error
			args := []uint64{uint64(table), uint64(out)}
			if annotated {
				callErr = ctx.Call("ablate.scan", args, gmac.Writes(out), gmac.Async())
			} else {
				callErr = ctx.Call("ablate.scan", args, gmac.Async())
			}
			if callErr != nil {
				return 0, 0, callErr
			}
			if err := ctx.Sync(); err != nil {
				return 0, 0, err
			}
			// The CPU inspects part of the (read-only) table and the
			// kernel output.
			if err := ctx.HostRead(table, slice); err != nil {
				return 0, 0, err
			}
			if err := ctx.HostRead(out, small); err != nil {
				return 0, 0, err
			}
			m.CPUTouch(sliceBytes + outBytes)
		}
		return m.Elapsed() - start, ctx.Stats().BytesD2H, nil
	}

	plainTime, plainD2H, err := run(false)
	if err != nil {
		return nil, err
	}
	annTime, annD2H, err := run(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: kernel write-set annotations (§4.3)",
		Columns: []string{"configuration", "time", "D2H bytes"},
		Notes: []string{
			"without annotations, every call invalidates the read-only table and the CPU re-fetches the slice it inspects",
			"the annotation keeps unwritten objects CPU-valid across calls, as the paper's suggested pointer analysis would",
		},
	}
	t.AddRow("unannotated calls", plainTime.String(), humanBytes(plainD2H))
	t.AddRow("annotated calls", annTime.String(), humanBytes(annD2H))
	t.AddRow("improvement", f("%.2fx", float64(plainTime)/float64(annTime)),
		f("%.1fx less", ratio(plainD2H, annD2H)))
	return t, nil
}

// AblationPeerDMA measures the §7 suggestion on the most I/O-bound Parboil
// benchmark: with peer DMA, file contents land in accelerator memory
// without staging through the host copy or re-crossing the bus.
func AblationPeerDMA() (*Table, error) {
	run := func(peer bool) (workloads.Report, error) {
		opt := workloads.Options{
			Protocol: gmac.RollingUpdate,
			Machine: func() *machine.Machine {
				cfg := machine.PaperTestbedConfig()
				cfg.PeerDMA = peer
				m, err := machine.New(cfg)
				if err != nil {
					panic(err)
				}
				return m
			},
		}
		return workloads.RunGMAC(workloads.DefaultMRIQ(), opt)
	}
	base, err := run(false)
	if err != nil {
		return nil, err
	}
	peer, err := run(true)
	if err != nil {
		return nil, err
	}
	if base.Checksum != peer.Checksum {
		return nil, fmt.Errorf("peer DMA changed the result: %v vs %v", peer.Checksum, base.Checksum)
	}
	t := &Table{
		Title:   "Ablation: hardware peer DMA (§7) on mri-q",
		Columns: []string{"configuration", "time", "staged H2D", "staged D2H", "peer in", "peer out"},
		Notes: []string{
			"mri-q is the Figure 10 peer-DMA motivation: its IORead share dominates",
			"with peer DMA the input never stages through system memory and the output never re-crosses the bus",
		},
	}
	row := func(label string, r workloads.Report) {
		t.AddRow(label, r.Time.String(),
			humanBytes(r.GMAC.BytesH2D), humanBytes(r.GMAC.BytesD2H),
			humanBytes(r.GMAC.PeerBytesIn), humanBytes(r.GMAC.PeerBytesOut))
	}
	row("staged through host (§4.4)", base)
	row("peer DMA", peer)
	return t, nil
}

// AblationVirtualMemory measures the §4.2 suggestion: with a device MMU,
// adsmAlloc never hits a host address conflict, even when the device
// physical window is fully occupied on the host side.
func AblationVirtualMemory() (*Table, error) {
	run := func(vm bool) (identity, conflicts, safe int, err error) {
		cfg := machine.PaperTestbedConfig()
		cfg.Accelerators[0].VirtualMemory = vm
		m, err := machine.New(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		defer m.Close()
		// Adversarial host layout: a shared library mapped exactly over
		// the device's physical window (the multi-GPU overlap of §4.2).
		devCfg := cfg.Accelerators[0]
		if err := m.VA.Reserve(devCfg.MemBase, devCfg.MemSize); err != nil {
			return 0, 0, 0, err
		}
		ctx, err := gmac.NewContext(m, gmac.Config{Protocol: gmac.RollingUpdate})
		if err != nil {
			return 0, 0, 0, err
		}
		for i := 0; i < 8; i++ {
			p, allocErr := ctx.Alloc(1 << 20)
			switch {
			case allocErr == nil:
				// Verify the single pointer really reaches the device.
				if err := ctx.HostWrite(p, []byte{byte(i)}); err != nil {
					return 0, 0, 0, err
				}
				identity++
			case errors.Is(allocErr, core.ErrAddrConflict):
				conflicts++
				sp, safeErr := ctx.Alloc(1<<20, gmac.Safe())
				if safeErr != nil {
					return 0, 0, 0, safeErr
				}
				if _, err := ctx.Safe(sp); err != nil {
					return 0, 0, 0, err
				}
				safe++
			default:
				return 0, 0, 0, allocErr
			}
		}
		return identity, conflicts, safe, nil
	}
	baseID, baseConf, baseSafe, err := run(false)
	if err != nil {
		return nil, err
	}
	vmID, vmConf, vmSafe, err := run(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: accelerator virtual memory (§4.2)",
		Columns: []string{"configuration", "identity allocs", "conflicts", "SafeAlloc fallbacks"},
		Notes: []string{
			"host layout adversarially occupies the whole device window",
			"a device MMU lets every allocation share one pointer; without it, every allocation needs adsmSafe translation",
		},
	}
	t.AddRow("no device MMU", f("%d", baseID), f("%d", baseConf), f("%d", baseSafe))
	t.AddRow("device MMU", f("%d", vmID), f("%d", vmConf), f("%d", vmSafe))
	return t, nil
}
