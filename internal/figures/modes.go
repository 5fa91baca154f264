package figures

import (
	"fmt"

	"repro/gmac"
	"repro/internal/workloads"
	"repro/machine"
)

// This file implements the access-modes ablation: the two synthetic
// workloads that declare a mode (ro-broadcast declares ModeReadOnly,
// wo-scatter ModeWriteOnly) run twice under rolling-update, once with
// UseModes off as the baseline and once with their declarations on.

// ModesRow is one workload of the modes ablation.
type ModesRow struct {
	Benchmark string
	// Mode names the declaration the moded run adds.
	Mode        string
	Base, Moded workloads.Report
}

// ModesRows runs the modes ablation. small selects the unit-test scale.
func ModesRows(small bool) ([]ModesRow, error) {
	ro, wo := workloads.DefaultROBroadcast(), workloads.DefaultWOScatter()
	opt := workloads.Options{Protocol: gmac.RollingUpdate}
	if small {
		ro, wo = workloads.SmallROBroadcast(), workloads.SmallWOScatter()
		opt.BlockSize = 16 << 10
		opt.Machine = func() *machine.Machine {
			cfg := machine.PaperTestbedConfig()
			cfg.Accelerators[0].MemSize = 128 << 20
			m, err := machine.New(cfg)
			if err != nil {
				panic(err)
			}
			return m
		}
	}
	plainRO, plainWO := *ro, *wo
	plainRO.UseModes, plainWO.UseModes = false, false
	var rows []ModesRow
	for _, c := range []struct {
		mode        string
		base, moded workloads.Benchmark
	}{
		{"read-only", &plainRO, ro},
		{"write-only", &plainWO, wo},
	} {
		r, err := modesPair(c.base, c.moded, opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ModesRow{Benchmark: c.moded.Name(), Mode: c.mode, Base: r[0], Moded: r[1]})
	}
	return rows, nil
}

// modesPair runs the base and moded workloads and verifies they computed
// the same result.
func modesPair(base, moded workloads.Benchmark, opt workloads.Options) ([2]workloads.Report, error) {
	b, err := workloads.RunGMAC(base, opt)
	if err != nil {
		return [2]workloads.Report{}, err
	}
	m, err := workloads.RunGMAC(moded, opt)
	if err != nil {
		return [2]workloads.Report{}, err
	}
	if b.Checksum != m.Checksum {
		return [2]workloads.Report{}, fmt.Errorf("%s: mode declarations changed the result: %v vs %v",
			base.Name(), m.Checksum, b.Checksum)
	}
	return [2]workloads.Report{b, m}, nil
}

// ModesTable renders the ablation.
func ModesTable(rows []ModesRow) *Table {
	t := &Table{
		Title:   "Access modes: declared read-only and write-only objects under rolling-update",
		Columns: []string{"benchmark", "mode", "base time", "moded time", "speedup", "base D2H", "moded D2H", "fetch elided"},
		Notes: []string{
			"each row compares the synthetic with its ModeReadOnly/ModeWriteOnly declaration off vs on",
			"checksums are verified equal between the two runs of every row",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Mode,
			r.Base.Time.String(), r.Moded.Time.String(),
			f("%.2fx", float64(r.Base.Time)/float64(r.Moded.Time)),
			humanBytes(r.Base.GMAC.BytesD2H), humanBytes(r.Moded.GMAC.BytesD2H),
			f("%d", r.Moded.GMAC.FetchElisions))
	}
	return t
}
