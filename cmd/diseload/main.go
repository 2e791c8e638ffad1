// diseload is the load generator for disesrvd: it drives a running server
// with a weighted mix of simulation jobs through the typed SDK and reports
// outcome counts and latency percentiles.
//
// Closed-loop (default) fixes the number of in-flight requests; open-loop
// (-mode open) fixes the arrival rate (-rps) and sheds arrivals beyond
// -max-outstanding instead of queueing without bound. -classes fans each
// mix entry over N trace-cache classes (1 = all repeats hit the cache);
// -golden asserts every response is byte-identical to the first one seen
// for its (entry, class). -json writes a benchjson-compatible report, so
// two runs diff with `benchjson -compare old.json new.json`.
//
// With -fleet pointing at a shard-map file (the same JSON the daemons
// serve under), jobs route across the fleet by cache-class key instead of
// hitting one address, re-routing to replicas on failures.
//
//	diseload -addr localhost:8080 -mix quickstart:4,gzip:1 -duration 10s
//	diseload -addr localhost:8080 -mode open -rps 200 -classes 8 -json load.json
//	diseload -fleet fleet.json -duration 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/load"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "disesrvd address (host:port or URL)")
		mode     = flag.String("mode", "closed", "generator shape: closed (fixed concurrency) or open (fixed arrival rate)")
		conc     = flag.Int("c", 8, "closed-loop concurrency (in-flight requests)")
		rps      = flag.Float64("rps", 20, "open-loop target arrival rate, requests/second")
		outst    = flag.Int("max-outstanding", 256, "open-loop cap on in-flight requests; arrivals beyond it are shed")
		duration = flag.Duration("duration", 5*time.Second, "how long new jobs are started; jobs in flight then run to completion")
		maxReq   = flag.Int64("n", 0, "stop after this many issued jobs (0 = duration-bound)")
		mixSpec  = flag.String("mix", "", "job mix as name[@cells][:weight] parts (quickstart, a bench name, or <bench>+count; @cells submits a batch sweep of that width); default quickstart:4,gzip:1,mcf+count:1")
		classes  = flag.Int("classes", 1, "trace-cache classes per mix entry (1 = every repeat hits the cache)")
		golden   = flag.Bool("golden", true, "assert responses are byte-identical per (entry, class)")
		seed     = flag.Int64("seed", 1, "schedule shuffle seed")
		retries  = flag.Int("retries", 5, "SDK retry budget per job (attempts including the first)")
		jsonOut  = flag.String("json", "", "write a benchjson-compatible report here (- for stdout)")
		name     = flag.String("name", "load", "record-name prefix in the JSON report")
		fleetMap = flag.String("fleet", "", "shard-map file; route jobs across the fleet by cache class instead of -addr")
	)
	flag.Parse()

	if err := run(*addr, *fleetMap, *mode, *conc, *rps, *outst, *duration, *maxReq,
		*mixSpec, *classes, *golden, *seed, *retries, *jsonOut, *name); err != nil {
		fmt.Fprintf(os.Stderr, "diseload: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, fleetMap, mode string, conc int, rps float64, outst int, duration time.Duration,
	maxReq int64, mixSpec string, classes int, golden bool, seed int64, retries int,
	jsonOut, name string) error {
	mix := load.DefaultMix()
	if mixSpec != "" {
		var err error
		if mix, err = load.ParseMix(mixSpec); err != nil {
			return err
		}
	}
	var c client.API
	target := addr
	if fleetMap != "" {
		m, err := fleet.LoadMap(fleetMap)
		if err != nil {
			return err
		}
		fc, err := client.NewFleet(m, client.WithFleetRetryPolicy(client.RetryPolicy{MaxAttempts: retries}))
		if err != nil {
			return err
		}
		c = fc
		target = fmt.Sprintf("fleet of %d (epoch %d)", len(m.Nodes), m.Epoch)
	} else {
		sc := client.New(addr, client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: retries}))
		c = sc
		target = sc.Base()
	}

	// ^C stops the run cleanly: in-flight jobs finish, the report still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var names []string
	for _, e := range mix {
		names = append(names, fmt.Sprintf("%s:%d", e.Name, e.Weight))
	}
	fmt.Fprintf(os.Stderr, "diseload: %s loop against %s, mix %s, %d class(es), %v\n",
		mode, target, strings.Join(names, ","), classes, duration)

	rep, err := load.Run(ctx, load.Options{
		Client:         c,
		Mix:            mix,
		Mode:           mode,
		Concurrency:    conc,
		RPS:            rps,
		MaxOutstanding: outst,
		Duration:       duration,
		MaxRequests:    maxReq,
		Classes:        classes,
		Golden:         golden,
		Seed:           seed,
	})
	if rep != nil {
		fmt.Println(rep.Summary())
		if jsonOut != "" {
			data, jerr := load.WriteBenchJSON(rep.BenchJSON(name))
			if jerr != nil {
				return jerr
			}
			if jsonOut == "-" {
				os.Stdout.Write(data)
			} else if werr := os.WriteFile(jsonOut, data, 0o644); werr != nil {
				return werr
			}
		}
	}
	return err
}
