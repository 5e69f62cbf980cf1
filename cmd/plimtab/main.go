// plimtab regenerates the evaluation tables of the DATE 2017 paper:
//
//	plimtab -table 1                 Table I  (write distribution, 5 configs)
//	plimtab -table 2                 Table II (#I and #R)
//	plimtab -table 3                 Table III (max-write cap trade-off)
//	plimtab -table cost              energy/latency/lifetime per config (extension)
//	plimtab -table ablation          per-technique isolation (extension)
//	plimtab -table all -format md    everything, Markdown (EXPERIMENTS.md)
//
// The cost table prices every compiled program under an instruction cost
// model — the built-in default, or a JSON model given with -cost-model
// (see plim.LoadCostModel). Pricing never changes the compiled programs,
// so Tables I–III are byte-identical whatever the model.
//
// Flags select benchmarks, rewriting effort, output format and a datapath
// shrink factor for quick runs. The suite runs on a plim.Engine: Ctrl-C
// cancels between benchmarks, and -v streams per-benchmark and per-cycle
// progress events.
//
// With -cache-dir (default $PLIM_CACHE_DIR) rewrite results and benchmark
// builds persist on disk across invocations, so regenerating a table — or
// compiling one of its benchmarks with plimc afterwards — skips every
// rewrite an earlier run already performed, byte-identically. A cache
// summary is printed to stderr unless -q is given.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"plim"
	"plim/internal/cli"
)

func main() {
	var (
		table     = flag.String("table", "all", "1|2|3|cost|ablation|all")
		costPath  = flag.String("cost-model", "", "JSON instruction cost model (default: built-in)")
		benches   = flag.String("benchmarks", "", "comma-separated subset (default: all 18)")
		effort    = flag.Int("effort", plim.DefaultEffort, "MIG rewriting cycles (0 = none)")
		shrink    = flag.Int("shrink", 1, "divide datapath widths (quick runs)")
		format    = flag.String("format", "text", "text|md|csv")
		outFile   = flag.String("out", "", "write to file instead of stdout")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel benchmark workers")
		caps      = flag.String("caps", "10,20,50,100", "write caps for Table III")
		quiet     = flag.Bool("q", false, "suppress progress output")
		tracePath = flag.String("trace", "", "write a Chrome trace-event JSON trace of the run (with -v: also a span tree on stderr)")
		verbose   = flag.Bool("v", false, "stream per-benchmark progress events to stderr")
		cacheDir  = flag.String("cache-dir", os.Getenv("PLIM_CACHE_DIR"),
			"persistent cache directory shared across plimtab/plimc invocations (default $PLIM_CACHE_DIR; empty = off)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	engOpts := []plim.Option{
		plim.WithEffort(*effort),
		plim.WithShrink(*shrink),
		plim.WithWorkers(*workers),
		plim.WithPersistentCache(*cacheDir),
		plim.WithTrace(*tracePath != ""),
	}
	if *costPath != "" {
		cm, err := plim.LoadCostModel(*costPath)
		if err != nil {
			fatal(err)
		}
		engOpts = append(engOpts, plim.WithCostModel(cm))
	}
	if *verbose && !*quiet {
		engOpts = append(engOpts, plim.WithProgress(func(ev plim.Event) {
			switch ev.(type) {
			case plim.EventRewriteCycle:
				return // per-cycle spam is only useful for single runs; see plimc -v
			case plim.EventCompileStart:
				return // the matching EventCompileDone carries the payload
			case plim.EventTaskStart:
				return // the matching EventTaskDone carries the timing
			}
			fmt.Fprintln(os.Stderr, plim.FormatEvent(ev))
		}))
	}
	eng := plim.NewEngine(engOpts...)

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	out := io.Writer(os.Stdout)
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	render := func(g *plim.Grid) {
		switch *format {
		case "text":
			fmt.Fprintln(out, g.Text())
		case "md":
			fmt.Fprintln(out, g.Markdown())
		case "csv":
			fmt.Fprintln(out, g.CSV())
		default:
			fatal(fmt.Errorf("plimtab: unknown format %q", *format))
		}
	}
	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintln(os.Stderr, msg)
		}
	}

	want := func(name string) bool { return *table == "all" || *table == name }
	start := time.Now()

	if want("1") || want("2") || want("cost") {
		progress("running Table I/II configurations...")
		sr, err := eng.RunSuite(ctx, plim.TableIConfigs(), names...)
		if err != nil {
			fatal(err)
		}
		if want("1") {
			d, err := plim.TableI(sr)
			if err != nil {
				fatal(err)
			}
			render(d.Grid())
		}
		if want("2") {
			d, err := plim.TableII(sr)
			if err != nil {
				fatal(err)
			}
			render(d.Grid())
		}
		if want("cost") {
			d, err := plim.TableCost(sr)
			if err != nil {
				fatal(err)
			}
			render(d.Grid())
		}
	}

	if want("3") {
		progress("running Table III cap sweep...")
		var cfgs []plim.Config
		for _, c := range strings.Split(*caps, ",") {
			var w uint64
			if _, err := fmt.Sscanf(strings.TrimSpace(c), "%d", &w); err != nil {
				fatal(fmt.Errorf("plimtab: bad cap %q", c))
			}
			cfgs = append(cfgs, plim.FullCap(w))
		}
		sr, err := eng.RunSuite(ctx, cfgs, names...)
		if err != nil {
			fatal(err)
		}
		d, err := plim.TableIII(sr)
		if err != nil {
			fatal(err)
		}
		render(d.Grid())
	}

	if want("ablation") {
		progress("running ablation configurations...")
		sr, err := eng.RunSuite(ctx, plim.AblationConfigs(), names...)
		if err != nil {
			fatal(err)
		}
		d, err := plim.TableI(sr)
		if err != nil {
			fatal(err)
		}
		g := d.Grid()
		g.Title = "Ablation: each endurance technique in isolation (STDEV improvement vs naive)"
		render(g)
	}

	if *tracePath != "" {
		if err := cli.WriteTrace(eng, *tracePath, *verbose && !*quiet, "plimtab"); err != nil {
			fatal(err)
		}
	}
	if s, ok := eng.CacheSummary(); ok {
		progress(s)
	}
	progress(fmt.Sprintf("done in %v", time.Since(start).Round(time.Millisecond)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
