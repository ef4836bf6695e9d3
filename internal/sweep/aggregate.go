package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/eval"
)

// WriteJSON renders the report as indented JSON. Cells are ordered by
// index and every value is deterministic, so two runs of the same spec —
// at any worker count, resumed or not — produce byte-identical output.
func WriteJSON(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("sweep: write json: %w", err)
	}
	return nil
}

// csvHeader is the flat per-cell schema; mobile columns are empty for
// static-only sweeps.
const csvHeader = "index,field,k,rc,strategy,fault_rate,seed,delta,delta_random,refined,relays,connected," +
	"delta_end,delta_mean,convergence_t,converged,connected_uptime,sink_reach,energy,delta_per_length,alive_end,deaths,repairs,rebuilds,error\n"

// WriteCSV renders the report as CSV with the same determinism contract
// as WriteJSON.
func WriteCSV(w io.Writer, rep *Report) error {
	var b strings.Builder
	b.WriteString(csvHeader)
	for _, r := range rep.Cells {
		fmt.Fprintf(&b, "%d,%s,%d,%g,%s,%g,%d,%g,%g,%d,%d,%v,",
			r.Index, r.Field, r.K, r.Rc, r.Strategy, r.FaultRate, r.Seed,
			r.Delta, r.DeltaRandom, r.Refined, r.Relays, r.Connected)
		if m := r.Mobile; m != nil {
			fmt.Fprintf(&b, "%g,%g,%g,%v,%g,%g,%g,%g,%d,%d,%d,%d,",
				m.DeltaEnd, m.DeltaMean, m.ConvergenceT, m.Converged,
				m.ConnectedUptime, m.SinkReach, m.Energy, m.DeltaPerLength,
				m.AliveEnd, m.Deaths, m.Repairs, m.Rebuilds)
		} else {
			b.WriteString(",,,,,,,,,,,,")
		}
		b.WriteString(csvEscape(r.Err))
		b.WriteByte('\n')
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("sweep: write csv: %w", err)
	}
	return nil
}

// csvEscape quotes a free-text field when it contains CSV metacharacters.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteTable renders the report as an aligned text table for terminals.
func WriteTable(w io.Writer, rep *Report) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	mobile := false
	for _, r := range rep.Cells {
		if r.Mobile != nil {
			mobile = true
			break
		}
	}
	if mobile {
		fmt.Fprintln(tw, "field\tk\trc\tstrategy\trate\tseed\tδ\tδ(rand)\trelays\tconn\tδ_end\tconv_t\tuptime\tenergy\tδ/m\talive")
	} else {
		fmt.Fprintln(tw, "field\tk\trc\tstrategy\trate\tseed\tδ\tδ(rand)\trelays\tconn")
	}
	for _, r := range rep.Cells {
		if r.Err != "" {
			fmt.Fprintf(tw, "%s\t%d\t%g\t%s\t%g\t%d\tFAILED: %s\n", r.Field, r.K, r.Rc, r.Strategy, r.FaultRate, r.Seed, r.Err)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%g\t%s\t%g\t%d\t%.1f\t%.1f\t%d\t%v",
			r.Field, r.K, r.Rc, r.Strategy, r.FaultRate, r.Seed, r.Delta, r.DeltaRandom, r.Relays, r.Connected)
		if m := r.Mobile; m != nil {
			conv := "-"
			if m.Converged {
				conv = fmt.Sprintf("%.0f", m.ConvergenceT)
			}
			fmt.Fprintf(tw, "\t%.1f\t%s\t%.2f\t%.1f\t%.2f\t%d", m.DeltaEnd, conv, m.ConnectedUptime, m.Energy, m.DeltaPerLength, m.AliveEnd)
		} else if mobile {
			fmt.Fprint(tw, "\t\t\t\t\t\t")
		}
		fmt.Fprintln(tw)
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("sweep: write table: %w", err)
	}
	return nil
}

// DeltaVsKRows projects a report onto the Fig. 7 series: one row per
// cell, in cell order. A single-field, single-rc, fault-free spec over
// the paper's k grid is how cmd/evalall, cmd/osd -sweep and the Fig. 7
// benchmark compute δ versus k — sweep.Run is the only Fig. 7 executor.
// A failed cell or an incomplete report is an error: a row of zeros would
// read as data.
func DeltaVsKRows(rep *Report) ([]eval.DeltaVsKRow, error) {
	if len(rep.Cells) != rep.Total {
		return nil, fmt.Errorf("sweep: report %q has %d of %d cells", rep.Name, len(rep.Cells), rep.Total)
	}
	rows := make([]eval.DeltaVsKRow, 0, len(rep.Cells))
	for _, r := range rep.Cells {
		if r.Err != "" {
			return nil, fmt.Errorf("sweep: cell %d (k=%d): %s", r.Index, r.K, r.Err)
		}
		rows = append(rows, eval.DeltaVsKRow{
			K:         r.K,
			FRA:       r.Delta,
			Random:    r.DeltaRandom,
			Refined:   r.Refined,
			Relays:    r.Relays,
			Connected: r.Connected,
		})
	}
	return rows, nil
}
