// Command linkcli is an interactive console over the linking stack:
// generate (or load the spec of) a synthetic world and explore it — link
// mentions as different users, run personalized searches, inspect burst
// events, and feed tweets back into the knowledgebase through the ingest
// pipeline.
//
//	linkcli [-seed N] [-users N] [-spec world.json] [-save]
//
// A spec file is the JSON-encoded generator parameters; since generation
// is deterministic, the spec fully reproduces the world.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"microlink"
	"microlink/internal/cli"
)

func main() {
	seed := flag.Int64("seed", 1, "world seed")
	users := flag.Int("users", 800, "world size")
	spec := flag.String("spec", "", "world spec file (JSON world parameters)")
	save := flag.Bool("save", false, "write the effective spec to -spec and exit")
	export := flag.String("export", "", "write the generated tweet corpus as JSONL to this path and exit")
	flag.Parse()

	params := microlink.WorldParams{Seed: *seed, Users: *users}
	if *spec != "" && !*save {
		data, err := os.ReadFile(*spec)
		if err != nil {
			fatal("read spec: %v", err)
		}
		if err := json.Unmarshal(data, &params); err != nil {
			fatal("parse spec: %v", err)
		}
	}
	if *save {
		if *spec == "" {
			fatal("-save requires -spec")
		}
		data, err := json.MarshalIndent(params, "", "  ")
		if err != nil {
			fatal("encode spec: %v", err)
		}
		if err := os.WriteFile(*spec, data, 0o644); err != nil {
			fatal("write spec: %v", err)
		}
		fmt.Printf("spec written to %s\n", *spec)
		return
	}

	fmt.Printf("generating world (seed=%d users=%d)…\n", params.Seed, params.Users)
	start := time.Now()
	world := microlink.Generate(params)
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fatal("export: %v", err)
		}
		if err := world.Store.WriteJSONL(f); err != nil {
			fatal("export: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("export: %v", err)
		}
		fmt.Printf("corpus (%d tweets) written to %s\n", world.Store.Len(), *export)
		return
	}
	sys := microlink.Build(world, microlink.Options{Reach: microlink.ReachStreaming})
	// The console writes only through Pipeline.Apply, which queues
	// nothing, so exit needs no drain.
	if _, err := sys.StartIngest(microlink.IngestConfig{}); err != nil {
		fatal("start ingest: %v", err)
	}
	fmt.Printf("ready in %v — %s\n", time.Since(start).Round(time.Millisecond), sys.Describe())
	fmt.Println(`type "help" for commands`)

	cli.Run(sys, os.Stdin, os.Stdout)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "linkcli: "+format+"\n", args...)
	os.Exit(1)
}
