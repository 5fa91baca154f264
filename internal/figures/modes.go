package figures

import (
	"fmt"

	"repro/gmac"
	"repro/internal/workloads"
	"repro/machine"
)

// This file implements the access-modes ablation: every registry workload
// run twice under rolling-update, once without mode declarations and once
// with them. The Parboil and micro benchmarks carry no hand-written modes,
// so their "moded" run forces gmac.Auto onto every allocation and lets the
// runtime migrate per-object protocols online; the two synthetic workloads
// (ro-broadcast, wo-scatter) declare ModeReadOnly/ModeWriteOnly themselves,
// so their baseline is the same workload with UseModes off.

// ModesRow is one workload of the modes ablation.
type ModesRow struct {
	Benchmark string
	// Mode names the declaration the moded run adds: "auto" for registry
	// workloads, "read-only"/"write-only" for the synthetics.
	Mode        string
	Base, Moded workloads.Report
}

// ModesRows runs the modes ablation over the full registry. small selects
// the unit-test scale.
func ModesRows(small bool) ([]ModesRow, error) {
	suite := workloads.All()
	opt := workloads.Options{Protocol: gmac.RollingUpdate}
	if small {
		suite = workloads.AllSmall()
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
	var rows []ModesRow
	for _, b := range suite {
		var row ModesRow
		switch w := b.(type) {
		case *workloads.ROBroadcast:
			plain := *w
			plain.UseModes = false
			r, err := modesPair(&plain, w, opt, opt)
			if err != nil {
				return nil, err
			}
			row = ModesRow{Benchmark: b.Name(), Mode: "read-only", Base: r[0], Moded: r[1]}
		case *workloads.WOScatter:
			plain := *w
			plain.UseModes = false
			r, err := modesPair(&plain, w, opt, opt)
			if err != nil {
				return nil, err
			}
			row = ModesRow{Benchmark: b.Name(), Mode: "write-only", Base: r[0], Moded: r[1]}
		default:
			auto := opt
			auto.Mode = gmac.Auto
			r, err := modesPair(b, b, opt, auto)
			if err != nil {
				return nil, err
			}
			row = ModesRow{Benchmark: b.Name(), Mode: "auto", Base: r[0], Moded: r[1]}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// modesPair runs the base and moded configurations and verifies they
// computed the same result.
func modesPair(base, moded workloads.Benchmark, baseOpt, modedOpt workloads.Options) ([2]workloads.Report, error) {
	b, err := workloads.RunGMAC(base, baseOpt)
	if err != nil {
		return [2]workloads.Report{}, err
	}
	m, err := workloads.RunGMAC(moded, modedOpt)
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
		Title:   "Access modes: per-object protocol selection under rolling-update",
		Columns: []string{"benchmark", "mode", "base time", "moded time", "speedup", "base D2H", "moded D2H", "fetch elided", "migrations"},
		Notes: []string{
			"Parboil/micro rows force gmac.Auto on every allocation; the runtime migrates per-object protocols online",
			"ro-broadcast/wo-scatter rows compare the synthetic with its ModeReadOnly/ModeWriteOnly declaration off vs on",
			"checksums are verified equal between the two runs of every row",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Mode,
			r.Base.Time.String(), r.Moded.Time.String(),
			f("%.2fx", float64(r.Base.Time)/float64(r.Moded.Time)),
			humanBytes(r.Base.GMAC.BytesD2H), humanBytes(r.Moded.GMAC.BytesD2H),
			f("%d", r.Moded.GMAC.FetchElisions),
			f("%d", r.Moded.GMAC.ModeMigrations))
	}
	return t
}
