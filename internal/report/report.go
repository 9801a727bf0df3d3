// Package report renders the pairwise symbiosis matrix as an aligned text
// table — the presentation layer cmd/sosbench and the examples share. It
// depends only on the standard library and holds no experiment logic.
package report

import (
	"fmt"
	"io"
)

// Matrix renders a labeled square matrix of float64 values (for the
// pairwise symbiosis table).
func Matrix(w io.Writer, names []string, vals [][]float64) error {
	if len(vals) != len(names) {
		return fmt.Errorf("report: %d rows for %d names", len(vals), len(names))
	}
	cw := 6
	for _, n := range names {
		if len(n) > cw {
			cw = len(n)
		}
	}
	if _, err := fmt.Fprintf(w, "%*s", cw+1, ""); err != nil {
		return err
	}
	for _, n := range names {
		if _, err := fmt.Fprintf(w, " %*s", cw, n); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i, n := range names {
		if len(vals[i]) != len(names) {
			return fmt.Errorf("report: row %d has %d cells", i, len(vals[i]))
		}
		if _, err := fmt.Fprintf(w, "%*s ", cw+1, n); err != nil {
			return err
		}
		for _, v := range vals[i] {
			if _, err := fmt.Fprintf(w, " %*.3f", cw, v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
