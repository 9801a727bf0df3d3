// Command sosd serves the SOS scheduler over HTTP: it parses flags into a
// serve.Config, resumes the response cache, listens, and drains on
// SIGINT/SIGTERM. The service itself — pipeline, evaluator, cache warm-up,
// metrics — is package internal/serve. See DESIGN.md section 10.
//
// Exit codes: 0 clean shutdown (SIGINT/SIGTERM drained), 1 internal error,
// 2 usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"symbios/internal/buildinfo"
	"symbios/internal/checkpoint"
	"symbios/internal/experiments"
	"symbios/internal/faults"
	"symbios/internal/obs"
	"symbios/internal/serve"
)

// Exit codes.
const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
)

const (
	// checkpointEvery is how many recorded responses pass between
	// checkpoint flushes.
	checkpointEvery = 8
	// warmTimeout bounds the cache fetch from each -warm-from sibling.
	warmTimeout = 10 * time.Second
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sosd", flag.ContinueOnError)
	fs.SetOutput(stderr)

	// Every policy flag binds straight into the service config, defaulting
	// to the library's own defaults; knobs without a flag keep them.
	cfg := serve.DefaultConfig()
	var (
		addr    = fs.String("addr", "127.0.0.1:8723", "listen address (host:port; port 0 picks a free port)")
		scale   = fs.String("scale", "serve", "cycle budget: serve, quick or default")
		chaos   = fs.Float64("chaos", 0, "probability of injected counter-read failure per read (chaos mode; also unlocks per-request fault blocks)")
		ckpt    = fs.String("checkpoint", "", "response-cache checkpoint file (resumed when it exists)")
		warm    = fs.String("warm-from", "", "comma-separated sibling sosd base URLs to warm the response cache from on boot (requires -checkpoint; /readyz reports 503 until the transfer settles)")
		drain   = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		version = fs.Bool("version", false, "print version and exit")
	)
	fs.BoolVar(&cfg.Pprof, "pprof", cfg.Pprof, "mount net/http/pprof endpoints under /debug/pprof/")

	fs.Float64Var(&cfg.Rate, "rate", cfg.Rate, "admission rate, requests/second")
	fs.Float64Var(&cfg.Burst, "burst", cfg.Burst, "admission burst (0 = same as -rate)")

	fs.DurationVar(&cfg.QueueTarget, "queue-target", cfg.QueueTarget, "CoDel sojourn target: shed while queued time stays above this for 4x the target (0 disables)")

	fs.IntVar(&cfg.BrownoutPin, "brownout-pin", cfg.BrownoutPin, "pin the degradation mode 0..2 (-1 runs the hysteresis controller)")
	fs.DurationVar(&cfg.BrownoutDown, "brownout-down", cfg.BrownoutDown, "queue sojourn above this steps the ladder down; below a quarter of it steps back up")
	fs.DurationVar(&cfg.BrownoutDownHold, "brownout-down-hold", cfg.BrownoutDownHold, "sustained exceedance required before a step down")
	fs.DurationVar(&cfg.BrownoutUpHold, "brownout-up-hold", cfg.BrownoutUpHold, "sustained recovery required before a step up (0 = 4x -brownout-down-hold)")

	fs.Float64Var(&cfg.Divergence, "divergence", cfg.Divergence, "fault injection: fraction of schedule fingerprints answered with deterministically perturbed bytes (models a divergent replica)")
	fs.DurationVar(&cfg.DivergenceFor, "divergence-for", cfg.DivergenceFor, "fault injection: close the -divergence window after this much uptime (0 = never)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, `sosd — resilient SOS coscheduling service

Usage:
  sosd [flags]

Exit codes:
  0  clean shutdown (drained on SIGINT/SIGTERM)
  1  internal error
  2  usage error

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Version("sosd"))
		return exitOK
	}
	logger := log.New(stderr, "sosd: ", log.LstdFlags|log.Lmsgprefix)

	switch *scale {
	case "serve":
		cfg.Scale = experiments.ServeScale()
	case "quick":
		cfg.Scale = experiments.QuickScale()
	case "default":
		cfg.Scale = experiments.DefaultScale()
	default:
		fmt.Fprintf(stderr, "unknown -scale %q (want serve, quick or default)\n", *scale)
		return exitUsage
	}
	if *chaos < 0 || *chaos > 1 {
		fmt.Fprintf(stderr, "-chaos %v out of range [0,1]\n", *chaos)
		return exitUsage
	}
	if *warm != "" && *ckpt == "" {
		fmt.Fprintln(stderr, "-warm-from requires -checkpoint (the transferred cache needs somewhere to live)")
		return exitUsage
	}
	if cfg.BrownoutPin < -1 || cfg.BrownoutPin > serve.BrownoutModes-1 {
		fmt.Fprintf(stderr, "-brownout-pin %d out of range [-1,%d]\n", cfg.BrownoutPin, serve.BrownoutModes-1)
		return exitUsage
	}
	if cfg.Divergence < 0 || cfg.Divergence > 1 {
		fmt.Fprintf(stderr, "-divergence %v out of range [0,1]\n", cfg.Divergence)
		return exitUsage
	}

	if *chaos > 0 {
		cfg.Chaos = &faults.Config{FailRate: *chaos}
		logger.Printf("chaos mode: counter reads fail with p=%v", *chaos)
	}
	if cfg.Divergence > 0 {
		logger.Printf("divergence fault injection: p=%v window=%v", cfg.Divergence, cfg.DivergenceFor)
	}

	var rec *checkpoint.Recorder
	if *ckpt != "" {
		r, resumed, err := serve.OpenCache(*ckpt, *scale, cfg, checkpointEvery)
		if err != nil {
			logger.Printf("checkpoint resume failed: %v", err)
			return exitInternal
		}
		rec = r
		if resumed {
			logger.Printf("resumed %d cached responses from %s", rec.Shards(), *ckpt)
		}
	}

	// Metrics are always on in the daemon: the registry is atomic counters
	// and observability never feeds back into scheduling. Tests cover the
	// nil-registry (disabled) configuration.
	reg := obs.NewRegistry()

	srv := serve.New(cfg, rec, reg, logger)

	// The warming gate goes up before the listener: /readyz answers 503
	// "warming cache" from the very first request, and flips to ready only
	// once a sibling's cache has been merged (or every sibling failed and
	// the node falls through to a cold start).
	if siblings := serve.SplitSiblings(*warm); len(siblings) > 0 {
		srv.WarmFrom(siblings, warmTimeout)
	}

	// Signals are caught before the address line is printed, so a supervisor
	// that signals as soon as it reads the line gets a drain, not a kill.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return exitInternal
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	// The address line is a contract: the repository benchmark parses it to
	// find a dynamically chosen port.
	logger.Printf("listening on %s", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigs:
		logger.Printf("%v: draining (budget %s)", sig, *drain)
		if err := srv.Shutdown(*drain, httpSrv); err != nil {
			logger.Printf("shutdown: %v", err)
			return exitInternal
		}
		<-serveErr // Serve has returned ErrServerClosed by now
		st, _ := json.Marshal(srv.Stats())
		logger.Printf("drained cleanly; final stats: %s", st)
		return exitOK
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			return exitInternal
		}
		return exitOK
	}
}
