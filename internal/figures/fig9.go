package figures

import (
	"fmt"

	"repro/gmac"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fig9Sizes are the volume edges swept by Figure 9. The paper sweeps
// 64..384; the largest sizes are reduced so the real stencil arithmetic
// stays tractable while preserving the crossover structure.
var Fig9Sizes = []int64{48, 64, 96, 128, 160}

// Fig9Blocks are the rolling-update block sizes compared by Figure 9.
var Fig9Blocks = []int64{4 << 10, 256 << 10, 1 << 20, 32 << 20}

// Fig9Row holds one volume size's measurements.
type Fig9Row struct {
	N       int64
	Lazy    sim.Time
	Rolling map[int64]sim.Time // block size -> time
}

// Fig9Rows runs the 3D-stencil application for each volume size under
// lazy-update and rolling-update at several block sizes.
func Fig9Rows(sizes []int64, blocks []int64) ([]Fig9Row, error) {
	if sizes == nil {
		sizes = Fig9Sizes
	}
	if blocks == nil {
		blocks = Fig9Blocks
	}
	var rows []Fig9Row
	for _, n := range sizes {
		row := Fig9Row{N: n, Rolling: make(map[int64]sim.Time, len(blocks))}
		lazyRep, err := workloads.RunGMAC(workloads.SizedStencil(n),
			workloads.Options{Protocol: gmac.LazyUpdate})
		if err != nil {
			return nil, err
		}
		row.Lazy = lazyRep.Time
		for _, bs := range blocks {
			rep, err := workloads.RunGMAC(workloads.SizedStencil(n),
				workloads.Options{Protocol: gmac.RollingUpdate, BlockSize: bs})
			if err != nil {
				return nil, err
			}
			if rep.Checksum != lazyRep.Checksum {
				return nil, fmt.Errorf("fig9: checksum diverged at %d/%d: %v vs %v",
					n, bs, rep.Checksum, lazyRep.Checksum)
			}
			row.Rolling[bs] = rep.Time
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9TableFrom renders the sweep.
func Fig9TableFrom(rows []Fig9Row, blocks []int64) *Table {
	if blocks == nil {
		blocks = Fig9Blocks
	}
	cols := []string{"volume", "lazy"}
	for _, bs := range blocks {
		cols = append(cols, "rolling "+humanBytes(bs))
	}
	t := &Table{
		Title:   "Figure 9: 3D-stencil execution time (volume sweep)",
		Columns: cols,
		Notes: []string{
			"paper: rolling-update beats lazy-update increasingly with volume (source introduction fetches one block, not the volume)",
			"paper: 32MB blocks lose to 256KB/1MB at small volumes and close the gap as disk output dominates",
		},
	}
	for _, row := range rows {
		cells := []string{f("%dx%dx%d", row.N, row.N, row.N), row.Lazy.String()}
		for _, bs := range blocks {
			cells = append(cells, row.Rolling[bs].String())
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig9PlotFrom draws the sweep on log-log axes like the paper.
func Fig9PlotFrom(rows []Fig9Row, blocks []int64) *Plot {
	if blocks == nil {
		blocks = Fig9Blocks
	}
	p := &Plot{
		Title:  "Figure 9: 3D-stencil execution time vs volume",
		XLabel: "volume elems",
		YLabel: "seconds",
		LogX:   true,
		LogY:   true,
		Height: 18,
	}
	lazy := Series{Label: "lazy"}
	for _, r := range rows {
		lazy.X = append(lazy.X, float64(r.N*r.N*r.N))
		lazy.Y = append(lazy.Y, r.Lazy.Seconds())
	}
	p.Series = append(p.Series, lazy)
	for _, bs := range blocks {
		s := Series{Label: "rolling " + humanBytes(bs)}
		for _, r := range rows {
			s.X = append(s.X, float64(r.N*r.N*r.N))
			s.Y = append(s.Y, r.Rolling[bs].Seconds())
		}
		p.Series = append(p.Series, s)
	}
	return p
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return f("%dMB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return f("%dKB", n>>10)
	default:
		return f("%dB", n)
	}
}
