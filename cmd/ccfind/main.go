// Command ccfind computes the connected components (and optionally a
// spanning forest) of a graph read from an edge-list file (format:
// header "n m", then one "u v" line per edge; '#' comments allowed).
//
// Usage:
//
//	ccfind [-algo fast|loglog|vanilla] [-forest] [-seed N] [-v] [file]
//	ccfind -batches K [-workers N] [-v] [file]
//
// With no file, stdin is read. Output: a summary line; per-vertex
// "vertex label" pairs with -v; the forest edge list with -forest.
//
// With -batches K, the edge list is replayed in K batches through a
// pramcc.Service on the streaming incremental backend: one line per
// batch with the running component count and the batch's ingestion
// latency, then the summary. This is the command-line view of the
// scenario experiment E12 measures (see EXPERIMENTS.md).
package main

import (
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ccfind: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}
