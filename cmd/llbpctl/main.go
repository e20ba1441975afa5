// Command llbpctl is the client CLI for the llbpd simulation service.
//
// Usage:
//
//	llbpctl -server 127.0.0.1:8344 submit -run fig10
//	llbpctl -server ... submit -cells 'Tomcat|llbp|200000|1000000'
//	llbpctl -server ... submit -workloads Tomcat,Kafka -predictors 64k,llbp
//	llbpctl -server ... status [job-id]
//	llbpctl -server ... watch  [job-id]      # follows; reads id from stdin when piped
//	llbpctl -server ... results [job-id] [-o out.jsonl]
//	llbpctl -server ... cancel job-id
//	llbpctl -server ... metrics [-o metrics.json] [-text]
//	llbpctl -server ... top [-interval 2s] [-n frames] [-plain]
//	llbpctl -server ... session <open|push|stream|status|list|close> [flags]
//	llbpctl -server ... health
//
// submit prints the job ID on stdout, so submit and watch compose:
//
//	llbpctl submit -run fig10 | llbpctl watch
//
// Resilience flags (global, before the command): -timeout bounds each
// request, -retries/-backoff/-backoff-max shape the transport retry
// schedule (the same seeded exponential backoff+jitter the simulation
// harness uses; -seed makes the jitter reproducible). Interrupted result
// streams resume automatically from the last delivered sequence number.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"llbp/internal/experiments"
	"llbp/internal/service"
	"llbp/internal/service/client"
	"llbp/internal/workload"
)

// presets maps experiment shorthands (-run) to the predictor spec keys
// their figures read, so a preset job computes exactly the headline
// cells of that figure. Budgets come from -warmup/-measure.
var presets = map[string][]string{
	"fig2":  {"64k", "inftage", "inftsl"},
	"fig9":  {"64k", "llbp", "llbp0lat", "512k"},
	"fig10": {"64k", "llbp", "llbp0lat", "512k"},
	"fig15": {"llbp"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llbpctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server     = fs.String("server", "127.0.0.1:8344", "llbpd address (host:port or URL)")
		timeout    = fs.Duration("timeout", 0, "per-request deadline for non-streaming calls (0 = none)")
		retries    = fs.Int("retries", 3, "transport-failure retries per request and stream reconnects (0 disables)")
		backoff    = fs.Duration("backoff", 50*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
		backoffMax = fs.Duration("backoff-max", 2*time.Second, "retry backoff cap")
		seed       = fs.Uint64("seed", 0, "retry-jitter seed (same seed = same backoff schedule)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: llbpctl [-server addr] [-timeout d] [-retries n] [-backoff d] <submit|status|watch|results|cancel|metrics|top|session|health> [flags]")
		return 2
	}
	clRetries := *retries
	if clRetries <= 0 {
		clRetries = -1 // client.Options: negative disables, 0 means default
	}
	cl := client.New(*server, client.Options{
		Timeout:     *timeout,
		Retries:     clRetries,
		BackoffBase: *backoff,
		BackoffMax:  *backoffMax,
		Seed:        *seed,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cmd, rest := fs.Arg(0), fs.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, cl, rest, stdout, stderr)
	case "status":
		err = cmdStatus(ctx, cl, rest, stdout)
	case "watch":
		err = cmdWatch(ctx, cl, rest, stdin, stdout)
	case "results":
		err = cmdResults(ctx, cl, rest, stdin, stdout, stderr)
	case "cancel":
		err = cmdCancel(ctx, cl, rest, stdout)
	case "metrics":
		err = cmdMetrics(ctx, cl, rest, stdout, stderr)
	case "top":
		err = cmdTop(ctx, cl, rest, stdout, stderr)
	case "session":
		err = cmdSession(ctx, cl, rest, stdin, stdout, stderr)
	case "health":
		err = cl.Health(ctx)
		if err == nil {
			fmt.Fprintln(stdout, "ok")
		}
	default:
		fmt.Fprintf(stderr, "llbpctl: unknown command %q\n", cmd)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "llbpctl:", err)
		return 1
	}
	return 0
}

// buildCells turns submit's flags into a cell list.
func buildCells(preset, cells, workloads, predictors string, warmup, measure uint64) ([]experiments.CellSpec, error) {
	switch {
	case cells != "":
		var out []experiments.CellSpec
		for _, key := range strings.Split(cells, ",") {
			cs, err := experiments.ParseCellKey(strings.TrimSpace(key))
			if err != nil {
				return nil, err
			}
			out = append(out, cs)
		}
		return out, nil
	case preset != "":
		specs, ok := presets[preset]
		if !ok {
			names := make([]string, 0, len(presets))
			for k := range presets {
				names = append(names, k)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown preset %q (have %v)", preset, names)
		}
		return crossProduct(workloadList(workloads), specs, warmup, measure)
	default:
		preds := strings.Split(predictors, ",")
		return crossProduct(workloadList(workloads), preds, warmup, measure)
	}
}

func workloadList(flagVal string) []string {
	if flagVal == "" || flagVal == "all" {
		return workload.Names()
	}
	parts := strings.Split(flagVal, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func crossProduct(wls, preds []string, warmup, measure uint64) ([]experiments.CellSpec, error) {
	var out []experiments.CellSpec
	for _, wl := range wls {
		for _, p := range preds {
			p = strings.TrimSpace(p)
			if p == "" {
				return nil, fmt.Errorf("empty predictor key")
			}
			out = append(out, experiments.CellSpec{
				Workload: wl, Predictor: p, Warmup: warmup, Measure: measure,
			})
		}
	}
	return out, nil
}

func cmdSubmit(ctx context.Context, cl *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("llbpctl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		preset     = fs.String("run", "", "experiment preset (fig2, fig9, fig10, fig15)")
		cells      = fs.String("cells", "", "explicit cells, comma-separated 'workload|predictor|warmup|measure' keys")
		workloads  = fs.String("workloads", "all", "comma-separated workloads (or 'all')")
		predictors = fs.String("predictors", "64k,llbp", "comma-separated predictor spec keys")
		warmup     = fs.Uint64("warmup", 200_000, "warmup branches per cell")
		measure    = fs.Uint64("measure", 1_000_000, "measured branches per cell")
		wait       = fs.Bool("wait", false, "block until the queue admits the job (honors Retry-After)")
		tenant     = fs.String("tenant", "", "tenant name for per-tenant admission quotas")
		priority   = fs.String("priority", "", "admission lane: high or normal (default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := buildCells(*preset, *cells, *workloads, *predictors, *warmup, *measure)
	if err != nil {
		return err
	}
	req := service.JobRequest{Schema: service.JobSchema, Tenant: *tenant, Priority: *priority, Cells: specs}
	var st service.JobStatus
	if *wait {
		st, err = cl.SubmitWait(ctx, req)
	} else {
		st, err = cl.Submit(ctx, req)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "job %s: %s (%d cells)\n", st.ID, st.State, st.Cells)
	fmt.Fprintln(stdout, st.ID) // bare ID on stdout: pipeable into watch
	return nil
}

// jobIDs resolves the positional job id, falling back to stdin lines
// (the `submit | watch` pipe).
func jobIDs(args []string, stdin io.Reader) ([]string, error) {
	if len(args) > 0 {
		return args, nil
	}
	var ids []string
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		if id := strings.TrimSpace(sc.Text()); id != "" {
			ids = append(ids, id)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no job id (pass one or pipe `llbpctl submit` output)")
	}
	return ids, nil
}

func cmdStatus(ctx context.Context, cl *client.Client, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		jobs, err := cl.Jobs(ctx)
		if err != nil {
			return err
		}
		for _, st := range jobs {
			printStatus(stdout, st)
		}
		return nil
	}
	for _, id := range args {
		st, err := cl.Status(ctx, id)
		if err != nil {
			return err
		}
		printStatus(stdout, st)
	}
	return nil
}

func printStatus(w io.Writer, st service.JobStatus) {
	fmt.Fprintf(w, "%s  %-9s  %d/%d cells done, %d failed\n", st.ID, st.State, st.Completed, st.Cells, st.Failed)
}

func cmdWatch(ctx context.Context, cl *client.Client, args []string, stdin io.Reader, stdout io.Writer) error {
	ids, err := jobIDs(args, stdin)
	if err != nil {
		return err
	}
	for _, id := range ids {
		err := cl.Stream(ctx, id, true, func(ev service.StreamEvent) error {
			switch ev.Type {
			case "progress":
				pct := 0.0
				if ev.Total > 0 {
					pct = float64(ev.Processed) / float64(ev.Total) * 100
				}
				fmt.Fprintf(stdout, "%s  cell %-44s %5.1f%%\n", id, ev.Key, pct)
			case "cell":
				if ev.Error != "" {
					fmt.Fprintf(stdout, "%s  cell %-44s FAILED: %s\n", id, ev.Key, ev.Error)
				} else {
					fmt.Fprintf(stdout, "%s  cell %-44s done\n", id, ev.Key)
				}
			case "done":
				fmt.Fprintf(stdout, "%s  %s (%d ok, %d failed)\n", id, ev.State, ev.Completed, ev.Failed)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func cmdResults(ctx context.Context, cl *client.Client, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("llbpctl results", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the JSON-lines stream to this file instead of stdout")
	follow := fs.Bool("follow", false, "wait for the job to finish instead of snapshotting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids, err := jobIDs(fs.Args(), stdin)
	if err != nil {
		return err
	}
	w := stdout
	var f *os.File
	if *out != "" {
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		w = f
	}
	for _, id := range ids {
		err := cl.Stream(ctx, id, *follow, func(ev service.StreamEvent) error {
			raw, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s\n", raw)
			return err
		})
		if err != nil {
			if f != nil {
				f.Close()
			}
			return err
		}
	}
	if f != nil {
		return f.Close()
	}
	return nil
}

func cmdCancel(ctx context.Context, cl *client.Client, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("cancel needs a job id")
	}
	for _, id := range args {
		st, err := cl.Cancel(ctx, id)
		if err != nil {
			return err
		}
		printStatus(stdout, st)
	}
	return nil
}

func cmdMetrics(ctx context.Context, cl *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("llbpctl metrics", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the llbp-metrics/1 document to this file instead of stdout")
	text := fs.Bool("text", false, "fetch the Prometheus text exposition (/metrics) instead of JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fetch := cl.Metrics
	if *text {
		fetch = cl.MetricsText
	}
	raw, err := fetch(ctx)
	if err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, raw, 0o644)
	}
	_, err = stdout.Write(raw)
	return err
}
