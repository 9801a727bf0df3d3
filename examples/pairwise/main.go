// Pairwise: the symbiosis matrix that motivated SOS.
//
// Before the ASPLOS paper, the authors explored symbiosis by coscheduling
// benchmark pairs and measuring the speedup of each combination
// ("Explorations in symbiosis on two multithreaded architectures", WMTEA
// 1999). This program reproduces that exploration on the simulated SMT
// core: every pair of benchmarks runs together on a 2-context machine and
// the matrix of weighted speedups is printed. Rows with high variance are
// jobs whose performance depends strongly on their partner — exactly the
// jobs a symbiosis-aware scheduler helps.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"symbios/internal/experiments"
	"symbios/internal/metrics"
	"symbios/internal/report"
)

func main() {
	sc := experiments.QuickScale()
	names := []string{"FP", "MG", "GCC", "GO", "IS", "EP"}

	fmt.Printf("measuring %d pairs (plus %d solo calibrations)...\n\n",
		len(names)*(len(names)-1)/2, len(names))
	tbl, err := experiments.Pairwise(context.Background(), sc, names)
	if err != nil {
		log.Fatal(err)
	}
	if err := report.Matrix(os.Stdout, tbl.Names, tbl.WS); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for i, n := range tbl.Names {
		row := make([]float64, 0, len(names)-1)
		for j := range tbl.Names {
			if i != j {
				row = append(row, tbl.WS[i][j])
			}
		}
		fmt.Printf("%-5s best partner WS %.3f, worst %.3f (spread %.1f%%)\n",
			n, metrics.Max(row), metrics.Min(row),
			100*(metrics.Max(row)-metrics.Min(row))/metrics.Min(row))
	}
}
