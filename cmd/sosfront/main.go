// Command sosfront is the fleet front tier for sosd: it shards /v1/schedule
// requests across a set of sosd backends by consistent hashing on
// (jobmix, seed), with R-way replica placement, per-backend circuit
// breakers, active health checking, failover between replicas, latency-
// hedged duplicates and singleflight coalescing. Because sosd responses are
// deterministic — identical requests yield byte-identical bodies on every
// replica — failover and hedging need no coordination: any replica's answer
// is THE answer. See DESIGN.md section 13.
//
// Exit codes: 0 clean shutdown (SIGINT/SIGTERM drained), 1 internal error,
// 2 usage error.
package main

import (
	"context"
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
	"strings"
	"syscall"
	"time"

	"symbios/internal/buildinfo"
	"symbios/internal/fleet"
	"symbios/internal/obs"
	"symbios/internal/resilience"
)

// Exit codes.
const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options is everything the command line sets: the front's configuration
// (Logger and Registry left for the caller) plus the process-level knobs.
type options struct {
	addr    string
	drain   time.Duration
	version bool
	front   fleet.Config
}

// parseFlags parses args into options. A usage error has already been
// reported on stderr when ok is false.
func parseFlags(args []string, stderr io.Writer) (o options, ok bool) {
	fs := flag.NewFlagSet("sosfront", flag.ContinueOnError)
	fs.SetOutput(stderr)

	var (
		addr     = fs.String("addr", "127.0.0.1:8822", "listen address (host:port; port 0 picks a free port)")
		backends = fs.String("backends", "", "comma-separated sosd base URLs to shard across (required)")
		replicas = fs.Int("replicas", 2, "replica placement width per key")
		vnodes   = fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
		drain    = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		version  = fs.Bool("version", false, "print version and exit")

		deadlineDef = fs.Duration("deadline-default", 5*time.Second, "per-request dispatch deadline when the client sets none")
		deadlineMax = fs.Duration("deadline-max", 30*time.Second, "per-request dispatch deadline ceiling")

		hedgeQuantile = fs.Float64("hedge-quantile", 0.95, "latency quantile, tracked per request class (cached, rank, adaptive), that arms the hedge timer")
		hedgeMin      = fs.Duration("hedge-min", 20*time.Millisecond, "hedge delay floor")
		hedgeMax      = fs.Duration("hedge-max", 2*time.Second, "hedge delay ceiling (also the unwarmed delay)")
		hedgeWarmup   = fs.Int("hedge-warmup", 20, "latency samples a request class needs before its tracked quantile is trusted")
		hedgeRatio    = fs.Float64("hedge-budget-ratio", 0.1, "hedge credit earned per attempt, per backend")
		hedgeCap      = fs.Float64("hedge-budget-cap", 10, "hedge credit ceiling per backend")

		attemptTimeout = fs.Duration("attempt-timeout", 10*time.Second, "per-backend attempt timeout inside a dispatch (0 = dispatch deadline only; bounds slow-loris backends)")
		failoverBase   = fs.Duration("failover-base", 10*time.Millisecond, "full-jitter backoff base between failover attempts")
		failoverMax    = fs.Duration("failover-max", 250*time.Millisecond, "full-jitter backoff ceiling between failover attempts")
		requireDigest  = fs.Bool("require-digest", true, "reject backend responses that carry no X-Content-Digest stamp (corrupted stamps are always rejected)")

		auditRate       = fs.Float64("audit-rate", 0.05, "per-answered-request probability of a background divergence audit (0 disables audits and quarantine readmission)")
		auditSeed       = fs.Uint64("audit-seed", 1, "deterministic audit draw seed")
		quarantineAfter = fs.Int("quarantine-after", 3, "divergence observations before a backend is quarantined from placement")
		quarantineClean = fs.Int("quarantine-readmit", 2, "consecutive clean probes before a quarantined backend is readmitted")
		noHedgeCompare  = fs.Bool("no-hedge-compare", false, "do not digest-compare hedge losers against the winner (hedge losers are cancelled instead)")

		healthEvery   = fs.Duration("health-interval", 500*time.Millisecond, "active health probe interval")
		healthTimeout = fs.Duration("health-timeout", 0, "health probe timeout (0 = same as -health-interval)")
		ejectAfter    = fs.Int("eject-after", 3, "consecutive failed probes before a backend is ejected")
		readmitAfter  = fs.Int("readmit-after", 2, "consecutive successful probes before an ejected backend is readmitted")

		brkWindow   = fs.Int("breaker-window", 16, "per-backend breaker sliding window size")
		brkMin      = fs.Int("breaker-min", 4, "per-backend breaker minimum samples before tripping")
		brkRate     = fs.Float64("breaker-rate", 0.5, "per-backend breaker error-rate threshold")
		brkCooldown = fs.Duration("breaker-cooldown", 2*time.Second, "per-backend breaker open-state cooldown")
		brkProbes   = fs.Int("breaker-probes", 2, "per-backend breaker half-open probe quota")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, `sosfront — fleet front tier for sosd

Usage:
  sosfront -backends URL,URL,... [flags]

Exit codes:
  0  clean shutdown (drained on SIGINT/SIGTERM)
  1  internal error
  2  usage error

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return o, false
	}
	o = options{addr: *addr, drain: *drain, version: *version}
	if o.version {
		return o, true
	}
	if *backends == "" {
		fmt.Fprintln(stderr, "-backends is required (comma-separated sosd base URLs)")
		return o, false
	}
	o.front = fleet.Config{
		Backends: strings.Split(*backends, ","),
		Replicas: *replicas,
		VNodes:   *vnodes,

		DeadlineDef: *deadlineDef,
		DeadlineMax: *deadlineMax,

		HedgeQuantile: *hedgeQuantile,
		HedgeMin:      *hedgeMin,
		HedgeMax:      *hedgeMax,
		HedgeWarmup:   *hedgeWarmup,

		AttemptTimeout: *attemptTimeout,
		FailoverBase:   *failoverBase,
		FailoverMax:    *failoverMax,
		RequireDigest:  *requireDigest,

		Divergence: fleet.DivergenceConfig{
			CompareHedges:   !*noHedgeCompare,
			AuditRate:       *auditRate,
			Seed:            *auditSeed,
			QuarantineAfter: *quarantineAfter,
			ReadmitAfter:    *quarantineClean,
		},

		Health: fleet.HealthConfig{
			Interval:     *healthEvery,
			Timeout:      *healthTimeout,
			EjectAfter:   *ejectAfter,
			ReadmitAfter: *readmitAfter,
		},
		Breaker: resilience.BreakerConfig{
			Window:     *brkWindow,
			MinSamples: *brkMin,
			ErrorRate:  *brkRate,
			Cooldown:   *brkCooldown,
			Probes:     *brkProbes,
		},
		Budget: resilience.BudgetConfig{Ratio: *hedgeRatio, Cap: *hedgeCap},
	}
	return o, true
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, ok := parseFlags(args, stderr)
	if !ok {
		return exitUsage
	}
	if o.version {
		fmt.Fprintln(stdout, buildinfo.Version("sosfront"))
		return exitOK
	}
	logger := log.New(stderr, "sosfront: ", log.LstdFlags|log.Lmsgprefix)
	o.front.Logger = logger
	o.front.Registry = obs.NewRegistry()
	front, err := fleet.New(o.front)
	if err != nil {
		logger.Printf("config: %v", err)
		return exitUsage
	}

	// Signals are caught before the address line is printed, so a supervisor
	// that signals as soon as it reads the line gets a drain, not a kill.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return exitInternal
	}
	httpSrv := &http.Server{Handler: front.Handler()}
	front.Start()

	// The address line is a contract: the repository benchmark parses it to
	// find a dynamically chosen port.
	logger.Printf("listening on %s", ln.Addr())
	logger.Printf("fronting %d backends, %d-way replicas", len(o.front.Backends), o.front.Replicas)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigs:
		logger.Printf("%v: draining (budget %s)", sig, o.drain)
		front.Draining()
		ctx, cancel := context.WithTimeout(context.Background(), o.drain)
		err := httpSrv.Shutdown(ctx)
		cancel()
		front.Close()
		if err != nil {
			logger.Printf("shutdown: %v", err)
			return exitInternal
		}
		<-serveErr // Serve has returned ErrServerClosed by now
		st, _ := json.Marshal(front.Stats())
		logger.Printf("drained cleanly; final stats: %s", st)
		return exitOK
	case err := <-serveErr:
		front.Close()
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			return exitInternal
		}
		return exitOK
	}
}
