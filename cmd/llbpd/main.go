// Command llbpd is the simulation service daemon: it serves the
// llbp-job/1 HTTP API (submit/status/stream/cancel), executes cells on a
// bounded worker pool through the fault-tolerant experiment harness, and
// journals both completed cells and job state so a killed daemon resumes
// exactly-once.
//
// Usage:
//
//	llbpd -addr 127.0.0.1:8344 -j 4 -queue-depth 32 \
//	      -journal llbpd.journal -drain-timeout 30s
//
// With -addr :0 the kernel picks a free port; the bound address is
// printed on stdout ("llbpd listening on ...") and, with -addr-file,
// written to a file for scripts. SIGINT/SIGTERM starts a graceful drain:
// admission closes, in-flight jobs get -drain-timeout to finish, and
// whatever remains is journaled for the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"llbp/internal/chaos"
	"llbp/internal/experiments"
	"llbp/internal/harness"
	"llbp/internal/service"
	"llbp/internal/session"
	"llbp/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with its dependencies injected. When ready is non-nil it
// receives the bound address once the daemon is serving — the hook the
// tests (and nothing else) use.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("llbpd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8344", "listen address (use :0 for an ephemeral port)")
		addrFile   = fs.String("addr-file", "", "write the bound address to this file once serving")
		workers    = fs.Int("j", 1, "worker pool size (concurrent jobs; also the harness simulation parallelism)")
		queueDepth = fs.Int("queue-depth", 16, "admission queue bound; beyond it submissions get 429")
		journal    = fs.String("journal", "", "cell journal path (job state goes to <path>.jobs); enables resume")
		drainT     = fs.Duration("drain-timeout", 30*time.Second, "grace given to in-flight jobs on shutdown")
		timeout    = fs.Duration("timeout", 0, "per-cell simulation deadline (0 = none)")
		retries    = fs.Int("retries", 0, "retries for transiently failed cells")
		warmup     = fs.Uint64("warmup", 200_000, "default warmup budget for harness-level runs")
		measure    = fs.Uint64("measure", 1_000_000, "default measure budget for harness-level runs")
		quiet      = fs.Bool("q", false, "suppress per-job progress logging")
		leaseTTL   = fs.Duration("lease-ttl", 30*time.Second, "job lease TTL; a worker silent this long loses the job to re-dispatch")
		streamT    = fs.Duration("stream-timeout", 30*time.Second, "per-write deadline on result streams; slower clients are dropped (0 = never)")
		tenantQ    = fs.Int("tenant-quota", 0, "max active jobs per tenant; beyond it submissions get 429 (0 = unlimited)")
		chaosSpec  = fs.String("chaos", "", "TESTING: chaos rules, e.g. 'worker.panic@2,stream.drop@3%5' (see internal/chaos)")
		chaosSeed  = fs.Uint64("chaos-seed", 0, "TESTING: derive a random single-shot chaos scenario from this seed (0 = off)")
		eventsPath = fs.String("events", "", "write an llbp-events/1 NDJSON job-lifecycle log to this file")
		traceFile  = fs.String("tracefile", "", "write a Chrome trace-event file of job/cell lifecycle spans to this file")
		sessJourn  = fs.String("session-journal", "", "streaming-session journal path; enables exactly-once session resume (defaults to <-journal>.sessions when -journal is set)")
		sessCkpt   = fs.Uint64("session-checkpoint", 25_000, "auto-checkpoint cadence in branches for streaming sessions")
		maxSess    = fs.Int("max-sessions", 64, "concurrently open streaming sessions")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var injector *chaos.Injector
	switch {
	case *chaosSpec != "":
		rules, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(stderr, "llbpd:", err)
			return 2
		}
		injector = chaos.New(rules...)
	case *chaosSeed != 0:
		injector = chaos.Scenario(*chaosSeed, 4, 16)
	}
	if injector != nil {
		fmt.Fprintf(stderr, "llbpd: CHAOS ENABLED: %s\n", injector)
	}

	// Install the signal handler before anything observable happens, so a
	// SIGTERM arriving the instant the address is published is already a
	// graceful drain, never a process kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "llbpd: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	reg := telemetry.NewRegistry()
	reg.SetClock(func() int64 { return time.Now().UnixMilli() })

	var events *telemetry.EventLog
	if *eventsPath != "" {
		var err error
		events, err = telemetry.CreateEventLog(*eventsPath)
		if err != nil {
			fmt.Fprintln(stderr, "llbpd:", err)
			return 1
		}
		events.SetClock(func() int64 { return time.Now().UnixMilli() })
	}
	var tracer *telemetry.Tracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "llbpd:", err)
			return 1
		}
		tracer = telemetry.NewTracer(f)
		tracer.ProcessName(telemetry.PidService, "llbpd")
	}

	cfg := experiments.Config{
		Warmup:      *warmup,
		Measure:     *measure,
		Parallelism: *workers,
		Timeout:     *timeout,
		Retries:     *retries,
		Telemetry:   reg,
	}
	var jobLogPath string
	if *journal != "" {
		j, err := harness.OpenJournal(*journal)
		if err != nil {
			fmt.Fprintln(stderr, "llbpd:", err)
			return 1
		}
		defer j.Close()
		if j.Len() > 0 && logf != nil {
			logf("cell journal %s holds %d completed cells", *journal, j.Len())
		}
		if injector != nil {
			j.SetWriteHook(chaos.TearHook(injector))
		}
		cfg.Journal = j
		jobLogPath = *journal + ".jobs"
	}

	// The server is created after the harness, but the harness needs the
	// server's progress sink; the closure breaks the cycle (no cell runs
	// before Start, so srv is always set by first use).
	var srv *service.Server
	cfg.CellProgress = func(key string, processed, total uint64) {
		if srv != nil {
			srv.CellProgress(key, processed, total)
		}
	}
	h := experiments.NewHarness(cfg)

	//llbplint:allow detflow -- the wall-clock tracer rides inside Options and taint tracking is field-coarse, so the whole server looks clock-derived even though the job log journals only job specs and states
	srv, err := service.New(service.Options{
		Runner:             h,
		Workers:            *workers,
		QueueDepth:         *queueDepth,
		LeaseTTL:           *leaseTTL,
		StreamWriteTimeout: *streamT,
		TenantQuota:        *tenantQ,
		Chaos:              injector,
		Registry:           reg,
		Events:             events,
		Tracer:             tracer,
		JobLogPath:         jobLogPath,
		Logf:               logf,
	})
	if err != nil {
		fmt.Fprintln(stderr, "llbpd:", err)
		return 1
	}

	// The streaming-session subsystem rides the same harness (sessions
	// fork the experiment matrix's warm snapshots), telemetry and chaos
	// injector as the job service, but journals separately — session
	// streams are branch-level input logs, not cell results.
	sessionJournal := *sessJourn
	if sessionJournal == "" && *journal != "" {
		sessionJournal = *journal + ".sessions"
	}
	sm, err := session.New(session.Options{
		Forker:             h,
		JournalPath:        sessionJournal,
		LeaseTTL:           *leaseTTL,
		CheckpointBranches: *sessCkpt,
		MaxSessions:        *maxSess,
		StreamWriteTimeout: *streamT,
		Chaos:              injector,
		Registry:           reg,
		Events:             events,
		Tracer:             tracer,
		Logf:               logf,
	})
	if err != nil {
		fmt.Fprintln(stderr, "llbpd:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "llbpd:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintln(stderr, "llbpd:", err)
			ln.Close()
			return 1
		}
	}
	fmt.Fprintf(stdout, "llbpd listening on %s\n", bound)

	srv.Start()
	// Session lease supervision: revoke claims whose push connection went
	// silent past the TTL, so a successor can take the session over.
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		tick := time.NewTicker(*leaseTTL / 2)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sm.ExpireLeases()
			case <-ctx.Done():
				return
			}
		}
	}()

	// One mux, two subsystems: session routes first (most specific wins
	// is irrelevant here — the prefixes are disjoint), job service as the
	// fallback root.
	top := http.NewServeMux()
	top.Handle("/v1/session", sm.Handler())
	top.Handle("/v1/session/", sm.Handler())
	top.Handle("/", srv.Handler())
	httpSrv := &http.Server{Handler: top}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	if ready != nil {
		ready <- bound
	}

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(stderr, "llbpd:", err)
		return 1
	}

	// Graceful drain: stop admission, give in-flight jobs the grace
	// window, then shut the HTTP listener down (letting any open result
	// streams deliver their final lines first).
	if logf != nil {
		logf("signal received; draining (up to %s)", *drainT)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "llbpd: shutdown:", err)
	}
	<-sweepDone
	sm.Shutdown()
	if events != nil {
		if err := events.Close(); err != nil {
			fmt.Fprintln(stderr, "llbpd: event log:", err)
		}
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintln(stderr, "llbpd: trace:", err)
		}
	}
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "llbpd: drain:", drainErr)
		return 1
	}
	if errors.Is(drainErr, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "llbpd: drain timed out; unfinished jobs journaled for resume\n")
	}
	return 0
}
