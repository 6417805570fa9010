// Quickstart: compile the elastic count-min sketch from the module
// library for a PISA target and inspect what the compiler chose.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"p4all"
)

func main() {
	// An elastic program: the library CMS plus a utility function.
	// The compiler decides rows and cols.
	source := p4all.ComposeModules(
		`header pkt { bit<32> flow; }`,
		p4all.CountMinSketchModule(p4all.ModuleInstance{Prefix: "cms", Key: "pkt.flow"}),
		`
control main {
    apply {
        cms_update.apply();
    }
}

assume cms_rows >= 1 && cms_rows <= 4;
optimize cms_rows * cms_cols;
`)

	// The paper's evaluation target: 10 stages, 4 stateful ALUs, 100
	// stateless ALUs, 4096 PHV bits, 1 Mb of register memory per stage.
	target := p4all.EvalTarget(p4all.Mb)

	// Certify: true runs the translation validator after codegen and
	// attaches the equivalence certificate to the result (see
	// docs/TRANSLATION_VALIDATION.md).
	res, err := p4all.Compile(source, target, p4all.Options{Certify: true})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Certificate.Proved() {
		log.Fatalf("translation validation failed: %s", res.Certificate.Summary())
	}
	fmt.Printf("certificate: %s\n\n", res.Certificate.Summary())

	fmt.Println("== The compiler stretched the sketch to fit the target ==")
	fmt.Printf("cms_rows = %d\n", res.Layout.Symbolic("cms_rows"))
	fmt.Printf("cms_cols = %d\n", res.Layout.Symbolic("cms_cols"))
	fmt.Printf("compile time: %v (ILP: %d vars, %d constraints)\n\n",
		res.Phases.Total(), res.Layout.Stats.Vars, res.Layout.Stats.Constrs)

	fmt.Println("== Stage layout (Figure 7 style) ==")
	fmt.Println(res.Layout)

	fmt.Println("== First lines of the generated concrete P4 ==")
	lines := strings.SplitN(res.P4, "\n", 16)
	fmt.Println(strings.Join(lines[:min(15, len(lines))], "\n"))

	// Execute the compiled program on a few packets.
	pipe, err := p4all.NewPipeline(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Executing the compiled pipeline ==")
	for _, flow := range []uint64{7, 7, 7, 42} {
		out, err := pipe.Process(p4all.Packet{{Name: "pkt.flow", Value: flow}})
		if err != nil {
			log.Fatal(err)
		}
		est, _ := p4all.MetaValue(out, "cms_meta.min", -1)
		fmt.Printf("packet flow=%2d -> estimated count %d\n", flow, est)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
