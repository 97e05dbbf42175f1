// Command figures regenerates every table and figure of the paper's
// evaluation section (§6) as text series.
//
// Usage:
//
//	figures [-exp all|table1|fig3|fig4|fig5|fig6|fig7|fig8|breakeven|effort]
//	        [-n 100] [-seed 1994]
//
// Each experiment prints the series the corresponding figure plots; see
// EXPERIMENTS.md for the paper-versus-measured comparison. The extra
// "analyze" experiment demonstrates the observability layer end to end:
// optimizer span, start-up decision trace, and EXPLAIN ANALYZE for a
// 3-way chain join.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dynplan"
	"dynplan/internal/harness"
	"dynplan/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig3, fig4, fig5, fig6, fig7, fig8, breakeven, effort, adaptive, sweep, analyze")
	n := flag.Int("n", 100, "binding sets per data point")
	seed := flag.Int64("seed", 11, "workload seed")
	flag.Parse()

	cfg := harness.DefaultConfig()
	cfg.N = *n
	cfg.Seed = *seed

	if *exp == "analyze" {
		if err := analyzeDemo(); err != nil {
			fatal(err)
		}
		return
	}
	if *exp == "table1" {
		w := workload.New(cfg.Seed)
		out, err := harness.Table1(w, cfg.Search)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}

	points, err := harness.Grid(cfg)
	if err != nil {
		fatal(err)
	}
	harness.SortPoints(points)
	params := cfg.Search.Params

	show := func(name, out string) {
		if *exp == "all" || *exp == name {
			fmt.Println(out)
		}
	}
	if *exp == "all" {
		w := workload.New(cfg.Seed)
		out, err := harness.Table1(w, cfg.Search)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	// Figure 3 uses the most complex query with both uncertainty sources.
	for _, p := range points {
		if p.Spec.Relations == 10 && p.MemUncertain {
			show("fig3", harness.Figure3(p, params, 10))
		}
	}
	show("fig4", harness.Figure4(points))
	show("fig5", harness.Figure5(points))
	show("fig6", harness.Figure6(points))
	show("fig7", harness.Figure7(points))
	show("fig8", harness.Figure8(points, params))
	show("breakeven", harness.BreakEven(points))
	show("effort", harness.SearchEffort(points))
	if *exp == "all" || *exp == "sweep" {
		for _, rels := range []int{1, 4} {
			pts, err := harness.RunSweep(cfg, rels, 11)
			if err != nil {
				fatal(err)
			}
			fmt.Println(harness.SweepReport(rels, pts))
		}
	}
	if *exp == "all" || *exp == "adaptive" {
		apts, err := harness.RunAdaptive(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(harness.AdaptiveReport(apts))
	}
}

// analyzeDemo walks the observability layer end to end on a 3-way chain
// join: dynamic optimization (span), module activation (decision trace),
// and metered execution (EXPLAIN ANALYZE).
func analyzeDemo() error {
	sys := dynplan.New()
	for i := 1; i <= 3; i++ {
		sys.MustCreateRelation(fmt.Sprintf("E%d", i), 400, 512,
			dynplan.Attr{Name: "a", DomainSize: 400, BTree: true},
			dynplan.Attr{Name: "jl", DomainSize: 80, BTree: true},
			dynplan.Attr{Name: "jh", DomainSize: 80, BTree: true},
		)
	}
	spec := dynplan.QuerySpec{}
	for i := 1; i <= 3; i++ {
		spec.Relations = append(spec.Relations, dynplan.RelSpec{
			Name: fmt.Sprintf("E%d", i),
			Pred: &dynplan.Pred{Attr: "a", Variable: fmt.Sprintf("v%d", i)},
		})
	}
	for i := 1; i < 3; i++ {
		spec.Joins = append(spec.Joins, dynplan.JoinSpec{
			LeftRel: fmt.Sprintf("E%d", i), LeftAttr: "jh",
			RightRel: fmt.Sprintf("E%d", i+1), RightAttr: "jl",
		})
	}
	q, err := sys.BuildQuery(spec)
	if err != nil {
		return err
	}
	dyn, err := sys.OptimizeDynamic(q, dynplan.Uncertainty{})
	if err != nil {
		return err
	}
	fmt.Println("=== optimizer span (3-way chain join, dynamic) ===")
	fmt.Print(dyn.Trace().Render())

	mod, err := dyn.Module()
	if err != nil {
		return err
	}
	binds := dynplan.Bindings{Selectivities: map[string]float64{}, MemoryPages: 64}
	for i := 1; i <= 3; i++ {
		binds.Selectivities[fmt.Sprintf("v%d", i)] = 0.1
	}
	act, err := mod.Activate(binds)
	if err != nil {
		return err
	}
	fmt.Println("\n=== start-up decision trace ===")
	fmt.Print(act.ExplainDecisions())

	db := sys.OpenDatabase()
	if err := db.GenerateData(7); err != nil {
		return err
	}
	if err := db.BuildIndexes(); err != nil {
		return err
	}
	db.EnableObservability()
	res, err := db.Exec(context.Background(), act, binds, dynplan.ExecOptions{})
	if err != nil {
		return err
	}
	fmt.Println("\n=== EXPLAIN ANALYZE ===")
	fmt.Print(res.ExplainAnalyze(dynplan.DefaultParams()))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
