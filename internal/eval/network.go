package eval

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/graph"
)

// NetworkRow quantifies what the paper's connectivity constraint buys:
// the data-collection cost and failure tolerance of one placement's
// communication network.
type NetworkRow struct {
	// K is the node count.
	K int
	// Delta is the placement's reconstruction quality.
	Delta float64
	// Relays is the number of nodes FRA spent on connectivity.
	Relays int
	// TotalTx is the per-epoch convergecast transmission count.
	TotalTx int
	// Energy is the per-epoch radio energy (d² model).
	Energy float64
	// MaxDepth is the deepest node's hop count to the sink.
	MaxDepth int
	// Bottleneck is the busiest node's transmission count.
	Bottleneck int
	// ArticulationPoints is the number of single points of failure.
	ArticulationPoints int
	// Biconnected reports tolerance of any single node failure.
	Biconnected bool
}

// NetworkVsK runs FRA for each k at communication radius rc (gridN is the
// local-error lattice, deltaN the δ lattice), then measures the collection
// cost (from the energy-optimal sink) and the robustness of the resulting
// network. Placements whose network is disconnected (tiny k) are skipped.
func NetworkVsK(f field.Field, ks []int, rc float64, gridN, deltaN int) ([]NetworkRow, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("%w: no k values", ErrBadParams)
	}
	var rows []NetworkRow
	for _, k := range ks {
		p, err := core.FRA(f, core.FRAOptions{K: k, Rc: rc, GridN: gridN, AnchorCorners: true})
		if err != nil {
			return nil, fmt.Errorf("eval: FRA k=%d: %w", k, err)
		}
		ev, err := core.Evaluate(f, p, rc, deltaN)
		if err != nil {
			return nil, fmt.Errorf("eval: evaluate k=%d: %w", k, err)
		}
		row := NetworkRow{K: k, Delta: ev.Delta, Relays: p.Relays}
		g := graph.NewUnitDisk(p.Nodes, rc)
		if !g.Connected() {
			continue
		}
		_, stats, err := collect.BestSink(g)
		if err != nil {
			return nil, fmt.Errorf("eval: sink k=%d: %w", k, err)
		}
		row.TotalTx = stats.TotalTx
		row.Energy = stats.Energy
		row.MaxDepth = stats.MaxDepth
		row.Bottleneck = stats.Bottleneck
		rob := g.AnalyzeRobustness()
		row.ArticulationPoints = len(rob.ArticulationPoints)
		row.Biconnected = rob.Biconnected
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteNetworkTable renders the network experiment as an aligned table.
func WriteNetworkTable(w io.Writer, rows []NetworkRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "k\tδ\trelays\ttx/epoch\tenergy\tmax_depth\tbottleneck\tart_points\tbiconnected")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.1f\t%d\t%d\t%.0f\t%d\t%d\t%d\t%v\n",
			r.K, r.Delta, r.Relays, r.TotalTx, r.Energy, r.MaxDepth,
			r.Bottleneck, r.ArticulationPoints, r.Biconnected)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("eval: write table: %w", err)
	}
	return nil
}
