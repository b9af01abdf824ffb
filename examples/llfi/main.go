// LLFI-style tool: a standalone software-level fault injector over any
// MiniC program, demonstrating the compiler + IR interpreter substrate
// directly (the layer the paper's SVF studies operate at).
package main

import (
	"fmt"
	"log"

	"vulnstack/internal/inject"
	"vulnstack/internal/llfi"
	"vulnstack/internal/minic"
)

// A small checksum utility written in MiniC.
const src = `
const N = 64

var data [N]int

func main() int {
	var i int
	for i = 0; i < N; i = i + 1 {
		data[i] = (i * 2654435761) & 0xFFFFFFFF
	}
	var h int = 0
	for i = 0; i < N; i = i + 1 {
		h = (h ^ data[i]) * 16777619
		h = h & 0xFFFFFFFF
	}
	out32(h)
	return 0
}
`

func main() {
	module, err := minic.Compile(src, llfi.Width)
	if err != nil {
		log.Fatal(err)
	}
	cp, err := llfi.Prepare(module, 1<<20, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden run: %d dynamic IR instructions, %d value definitions, output %x\n",
		cp.GoldenSteps, cp.GoldenDefs, cp.GoldenOut)

	const n = 400
	tally := cp.RunCampaign(n, 1, nil)
	fmt.Printf("\n%d single-bit IR-level injections:\n", n)
	for o := inject.Outcome(0); o < inject.NumOutcomes; o++ {
		fmt.Printf("  %-8s %6.1f%%\n", o, 100*tally.Frac(o))
	}
	fmt.Printf("SVF = %.1f%%\n", 100*tally.SVF())
	fmt.Println("\nnote what this number cannot see: kernel activity, cache and")
	fmt.Println("register residency, and output that escapes via DMA — the gaps")
	fmt.Println("the cross-layer AVF measurement exposes (see ../crosslayer).")
}
