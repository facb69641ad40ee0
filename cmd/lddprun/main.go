// Command lddprun solves one LDDP case-study problem and reports the
// answer plus, for simulated solvers, the heterogeneous execution profile.
//
// Usage:
//
//	lddprun -problem levenshtein -size 2048 -solver hetero
//	lddprun -problem dither -size 512 -solver parallel -workers 8
//	lddprun -problem checkerboard -size 1024 -solver hetero -platform Hetero-Low -gantt
//	lddprun -problem checkerboard -size 4096 -solver multi -accels k20,phi
//	lddprun -problem levenshtein -size 2048 -solver hetero -trace
//	lddprun -problem lcs -size 2048 -solver parallel -trace -metrics
//	lddprun -problem levenshtein -size 2048 -solver parallel -traceout t.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/hetsim"
	"repro/internal/trace"
	"repro/lddp"
)

func main() {
	problem := flag.String("problem", "levenshtein", fmt.Sprintf("one of %v", cli.ProblemNames()))
	size := flag.Int("size", 1024, "table side length")
	solver := flag.String("solver", "hetero", "seq, parallel, tiled, resilient, cpu, gpu, hetero or multi")
	workers := flag.Int("workers", 0, "workers for -solver parallel/tiled (0 = min(GOMAXPROCS, NumCPU))")
	platform := flag.String("platform", "Hetero-High", "simulated platform (Hetero-High, Hetero-Low, Hetero-Phi, Hetero-Modern)")
	platformFile := flag.String("platform-file", "", "load a custom platform calibration from a JSON file (overrides -platform)")
	tswitch := flag.Int("tswitch", -1, "t_switch (-1 = auto)")
	tshare := flag.Int("tshare", -1, "t_share (-1 = auto)")
	seed := flag.Uint64("seed", 1, "workload seed")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of the simulated timeline")
	csv := flag.Bool("csv", false, "dump the simulated timeline as CSV")
	accels := flag.String("accels", "", "comma-separated accelerators for -solver multi (k20,gt650m,phi)")
	tile := flag.Int("tile", 0, "tile size for -solver tiled (0 = auto)")
	replicas := flag.Int("replicas", 3, "memory replicas for -solver resilient")
	faultRate := flag.Int("faultrate", 1, "percent of writes corrupted per replica for -solver resilient")
	htmlOut := flag.String("html", "", "write an HTML Gantt chart of the simulated timeline to this file")
	metricsOut := flag.Bool("metrics", false, "emit the analyzed runtime trace of the solve as JSON on stdout")
	traceOut := flag.Bool("trace", false, "print the simulated phases, or the per-worker trace summary of a native solve")
	traceFile := flag.String("traceout", "", "record runtime events and write them as Chrome trace-event JSON to this file (analyze with lddptrace or ui.perfetto.dev)")
	flag.Parse()

	inst, err := cli.BuildInstance(*problem, *size, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("problem=%s table=%dx%d pattern=%s\n", inst.Name, inst.Rows, inst.Cols, inst.Pattern)

	// One tracer serves every reporting flag; solvers that record no
	// events (seq, resilient) just yield an empty trace.
	var tracer *lddp.Tracer
	if *traceFile != "" || *traceOut || *metricsOut {
		tracer = lddp.NewTracer()
	}
	simulated := false

	switch *solver {
	case "seq":
		ans, err := inst.SolveSeq()
		if err != nil {
			fatal(err)
		}
		fmt.Println(ans)
	case "tiled":
		tl := *tile
		if tl <= 0 {
			tl = core.DefaultTile(4)
		}
		ans, err := inst.SolveTiled(tl, core.Options{NativeWorkers: *workers, Tracer: tracer})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (tile=%d)\n", ans, tl)
	case "resilient":
		ans, corrected, err := inst.SolveResilient(*replicas, *faultRate, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (replicas=%d, detected faults at %d cells)\n", ans, *replicas, corrected)
	case "parallel":
		ans, err := inst.SolveParallel(core.Options{NativeWorkers: *workers, Tracer: tracer})
		if err != nil {
			fatal(err)
		}
		fmt.Println(ans)
	case "cpu", "gpu", "hetero", "multi":
		simulated = true
		var plat *hetsim.Platform
		var err error
		if *platformFile != "" {
			data, rerr := os.ReadFile(*platformFile)
			if rerr != nil {
				fatal(rerr)
			}
			plat, err = hetsim.LoadPlatform(data)
		} else {
			plat, err = hetsim.PlatformByName(*platform)
		}
		if err != nil {
			fatal(err)
		}
		opts := core.Options{Platform: plat, TSwitch: *tswitch, TShare: *tshare, Tracer: tracer}
		var info cli.SimInfo
		if *solver == "multi" {
			names := strings.Split(*accels, ",")
			if *accels == "" {
				names = []string{"k20", "gt650m"}
			}
			info, err = inst.SolveMulti(names, opts)
		} else {
			info, err = inst.SolveSim(*solver, opts)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(info.Result)
		fmt.Printf("executed=%s transfer=%s t_switch=%d t_share=%d\n",
			info.Executed, info.Transfer, info.TSwitch, info.TShare)
		fmt.Printf("simulated: %s\n", trace.StatsLine(info.Timeline))
		if *traceOut {
			for _, ph := range info.Timeline.Phases() {
				fmt.Printf("  phase %-12s wall=%s\n", ph.Name, ph.Wall)
			}
		}
		if *gantt {
			fmt.Print(trace.Gantt(info.Timeline, 100))
		}
		if *csv {
			if err := trace.WriteCSV(os.Stdout, info.Timeline); err != nil {
				fatal(err)
			}
		}
		if *htmlOut != "" {
			f, err := os.Create(*htmlOut)
			if err != nil {
				fatal(err)
			}
			title := fmt.Sprintf("%s %dx%d (%s)", inst.Name, inst.Rows, inst.Cols, *solver)
			if err := trace.WriteHTMLGantt(f, info.Timeline, title); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *htmlOut)
		}
	default:
		fatal(fmt.Errorf("unknown solver %q", *solver))
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		if err := lddp.WriteTrace(f, tracer); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		n := len(tracer.Events())
		if n == 0 {
			fmt.Printf("wrote %s (no events: solver %q is untraced)\n", *traceFile, *solver)
		} else {
			fmt.Printf("wrote %s (%d events, %d dropped)\n", *traceFile, n, tracer.Dropped())
		}
	}
	if *traceOut && !simulated {
		if len(tracer.Events()) == 0 {
			fmt.Printf("trace: solver %q is untraced\n", *solver)
		} else if err := lddp.WriteTraceSummary(os.Stdout, tracer); err != nil {
			fatal(err)
		}
	}
	if *metricsOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lddp.AnalyzeTrace(tracer, 0)); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lddprun:", err)
	os.Exit(1)
}
