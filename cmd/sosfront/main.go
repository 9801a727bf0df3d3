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

	// The flags bind straight into the front's config, defaulting to the
	// values fleet.DefaultConfig fixes for every knob without a flag.
	o = options{addr: "127.0.0.1:8822", drain: 10 * time.Second, front: fleet.DefaultConfig()}
	backends := fs.String("backends", "", "comma-separated sosd base URLs to shard across (required)")
	fs.StringVar(&o.addr, "addr", o.addr, "listen address (host:port; port 0 picks a free port)")
	fs.DurationVar(&o.drain, "drain", o.drain, "graceful-shutdown drain budget")
	fs.BoolVar(&o.version, "version", false, "print version and exit")

	fs.IntVar(&o.front.Replicas, "replicas", o.front.Replicas, "replica placement width per key")
	fs.DurationVar(&o.front.AttemptTimeout, "attempt-timeout", o.front.AttemptTimeout, "per-backend attempt timeout inside a dispatch (0 = dispatch deadline only; bounds slow-loris backends)")

	div := &o.front.Divergence
	fs.Float64Var(&div.AuditRate, "audit-rate", div.AuditRate, "per-answered-request probability of a background divergence audit (0 disables audits and quarantine readmission)")
	fs.Uint64Var(&div.Seed, "audit-seed", div.Seed, "deterministic audit draw seed")
	fs.IntVar(&div.QuarantineAfter, "quarantine-after", div.QuarantineAfter, "divergence observations before a backend is quarantined from placement")
	fs.IntVar(&div.ReadmitAfter, "quarantine-readmit", div.ReadmitAfter, "consecutive clean probes before a quarantined backend is readmitted")
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
	if o.version {
		return o, true
	}
	if *backends == "" {
		fmt.Fprintln(stderr, "-backends is required (comma-separated sosd base URLs)")
		return o, false
	}
	o.front.Backends = strings.Split(*backends, ",")
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
