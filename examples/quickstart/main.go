// Quickstart reproduces the paper's motivating example (Figure 1): a
// single-relation query with an unbound selection predicate.
//
// If few records satisfy the predicate, an unclustered B-tree scan is far
// superior to a file scan; the situation reverses when many records
// qualify. Because the selectivity is unknown at compile-time, the two
// plans' cost intervals overlap, and dynamic-plan optimization keeps both
// under a choose-plan operator. At start-up, with the host variable
// bound, the cheaper plan is chosen — and we execute it to show the
// difference in actual I/O.
package main

import (
	"context"
	"fmt"
	"log"

	"dynplan"
)

func main() {
	sys := dynplan.New()
	sys.MustCreateRelation("emp", 1000, 512,
		dynplan.Attr{Name: "salary", DomainSize: 1000, BTree: true},
		dynplan.Attr{Name: "dept", DomainSize: 50, BTree: true},
	)

	q, err := sys.BuildQuery(dynplan.QuerySpec{
		Relations: []dynplan.RelSpec{
			{Name: "emp", Pred: &dynplan.Pred{Attr: "salary", Variable: "limit"}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", q)

	// Traditional optimization commits to one plan using the default
	// selectivity estimate (0.05).
	static, err := sys.OptimizeStatic(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstatic plan (assumes selectivity 0.05):")
	fmt.Print(static.Explain())

	// Dynamic optimization keeps every potentially optimal plan.
	dyn, err := sys.OptimizeDynamic(q, dynplan.Uncertainty{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndynamic plan (cost %v, %d nodes, %.0f alternatives):\n",
		dyn.Cost(), dyn.NodeCount(), dyn.Alternatives())
	fmt.Print(dyn.Explain())

	mod, err := dyn.Module()
	if err != nil {
		log.Fatal(err)
	}

	db := sys.OpenDatabase()
	if err := db.GenerateData(7); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildIndexes(); err != nil {
		log.Fatal(err)
	}

	for _, sel := range []float64{0.005, 0.80} {
		b := dynplan.Bindings{
			Selectivities: map[string]float64{"limit": sel},
			MemoryPages:   64,
		}
		act, err := mod.Activate(b)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- bound selectivity %.3f ---\n", sel)
		fmt.Printf("chosen plan (predicted %.4gs):\n%s", act.PredictedCost(), act.Explain())
		res, err := db.Exec(context.Background(), act, b, dynplan.ExecOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("executed: %d rows, %d sequential + %d random page reads\n",
			len(res.Rows), res.SeqPageReads, res.RandPageReads)
	}
}
