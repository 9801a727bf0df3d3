package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves on the machine: the scratch
// directory and every child process. cleanup is idempotent and is reached
// from every exit path — normal return, error, panic on any goroutine
// (guard), and SIGINT/SIGTERM/SIGHUP.
type sandbox struct {
	parent string // the build directory: results and span files outlive the run here
	dir    string // this run's scratch, removed by cleanup

	mu    sync.Mutex
	procs []*proc
	once  sync.Once
}

// newSandbox creates the scratch directory under parent and arms the signal
// handler.
func newSandbox(parent string) (*sandbox, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	sb := &sandbox{parent: parent, dir: dir}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "benchmark: %v: killing children and cleaning up\n", sig)
		sb.cleanup()
		os.Exit(130)
	}()
	return sb, nil
}

// cleanup kills every child still alive, waits for each to be reaped, and
// removes the scratch directory.
func (sb *sandbox) cleanup() {
	sb.once.Do(func() {
		sb.mu.Lock()
		procs := append([]*proc(nil), sb.procs...)
		sb.mu.Unlock()
		for _, p := range procs {
			p.kill()
		}
		os.RemoveAll(sb.dir)
	})
}

// guard is deferred at the top of every goroutine the benchmark starts: a
// panic there would otherwise end the process without running main's
// deferred cleanup and leave daemons behind.
func (sb *sandbox) guard() {
	if r := recover(); r != nil {
		fmt.Fprintf(os.Stderr, "benchmark: panic: %v\n%s", r, debug.Stack())
		sb.cleanup()
		os.Exit(2)
	}
}

// proc is one child daemon with its stderr log tailed in memory.
type proc struct {
	name string
	cmd  *exec.Cmd

	addrC chan string   // receives the address from the "listening on" line
	done  chan struct{} // closed once the process has been reaped

	mu       sync.Mutex
	lines    []string
	drained  bool  // saw "drained cleanly"
	stopping bool  // stop() was called: an exit is expected
	waitErr  error // cmd.Wait's verdict, valid after done
}

// spawn starts bin with args, tailing its stderr. The daemons print
// "listening on ADDR" as a contract line once the socket is bound; wait for
// it with awaitAddr.
func (sb *sandbox) spawn(name, bin string, args ...string) (*proc, error) {
	p := &proc{
		name:  name,
		cmd:   exec.Command(bin, args...),
		addrC: make(chan string, 1),
		done:  make(chan struct{}),
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	sb.mu.Lock()
	sb.procs = append(sb.procs, p)
	sb.mu.Unlock()
	go func() {
		defer sb.guard()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.lines = append(p.lines, line)
			if strings.Contains(line, "drained cleanly") {
				p.drained = true
			}
			p.mu.Unlock()
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case p.addrC <- strings.TrimSpace(addr):
				default:
				}
			}
		}
		// Wait only after the pipe hit EOF: Wait closes the read side.
		err := p.cmd.Wait()
		p.mu.Lock()
		p.waitErr = err
		p.mu.Unlock()
		close(p.done)
	}()
	return p, nil
}

// awaitAddr blocks until the daemon has announced its listen address.
func (p *proc) awaitAddr(timeout time.Duration) (string, error) {
	select {
	case addr := <-p.addrC:
		return addr, nil
	case <-p.done:
		return "", fmt.Errorf("%s exited before listening:\n%s", p.name, p.tail(10))
	case <-time.After(timeout):
		return "", fmt.Errorf("%s did not announce an address within %s:\n%s", p.name, timeout, p.tail(10))
	}
}

// tail returns the last n log lines, for error reports.
func (p *proc) tail(n int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(lastN(p.lines, n), "\n")
}

// died reports an exit nobody asked for: the daemon crashed or was killed
// while the benchmark still needed it.
func (p *proc) died() error {
	select {
	case <-p.done:
	default:
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopping {
		return nil
	}
	return fmt.Errorf("%s died mid-run (%v):\n%s", p.name, p.waitErr, strings.Join(lastN(p.lines, 10), "\n"))
}

func lastN(lines []string, n int) []string {
	if len(lines) > n {
		return lines[len(lines)-n:]
	}
	return lines
}

// stop SIGTERMs the daemon and requires the graceful path: exit status 0
// and the "drained cleanly" log line. Anything else is an error — a daemon
// that cannot shut down cleanly after a benchmark window has a bug the
// window's numbers should not be trusted past.
func (p *proc) stop(timeout time.Duration) error {
	p.mu.Lock()
	p.stopping = true
	p.mu.Unlock()
	select {
	case <-p.done:
		return fmt.Errorf("%s was already gone before shutdown (%v):\n%s", p.name, p.waitErr, p.tail(10))
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", p.name, err)
	}
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("%s ignored SIGTERM for %s; killed:\n%s", p.name, timeout, p.tail(10))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.waitErr != nil || !p.drained {
		return fmt.Errorf("%s did not drain cleanly (exit: %v, drained line: %v):\n%s",
			p.name, p.waitErr, p.drained, strings.Join(lastN(p.lines, 10), "\n"))
	}
	return nil
}

// kill SIGKILLs the daemon if it is still running and waits until it has
// been reaped.
func (p *proc) kill() {
	p.mu.Lock()
	p.stopping = true
	p.mu.Unlock()
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Kill()
	<-p.done
}
