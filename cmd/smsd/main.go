// Command smsd is the experiment daemon: a long-running HTTP server that
// regenerates the paper's figures and runs ad-hoc simulations on demand,
// deduplicating concurrent identical work and persisting every result in
// a content-addressed store so nothing is ever simulated twice.
//
// Usage:
//
//	smsd -store /var/lib/smsd [-journal /var/lib/smsd/journal] [-addr :8344] [-quick]
//
// One binary serves three roles:
//
//	smsd                                  single node (the default)
//	smsd -cluster                         cluster coordinator: figures and
//	                                      grids scatter across registered workers
//	smsd -worker -coordinator http://...  worker: registers, heartbeats, and
//	                                      executes cells for the coordinator
//
// Without -store, results are memoized in memory and a workload's trace
// lives only while a run or grid that replays it is queued or running:
// separate POST /v1/runs requests, and separate cells on a worker,
// generate their trace again. With -store, traces persist in the store's
// trace tier and later runs replay them.
//
// Every daemon in a cluster must be launched with the same simulation
// options (-cpus/-seed/-length/-parallel/-quick); workers refuse cells
// whose content address disagrees with their own and are quarantined.
//
// Endpoints (see package repro/internal/server):
//
//	curl localhost:8344/v1/figures/fig8
//	curl -X POST localhost:8344/v1/runs -d '{"workload":"oltp-db2","prefetcher":"sms"}'
//	curl localhost:8344/v1/jobs?state=active
//	curl -X DELETE localhost:8344/v1/jobs/<id>
//	curl -X POST localhost:8344/v1/figures/fig8
//	curl localhost:8344/v1/cluster/workers
//	curl localhost:8344/v1/prefetchers
//	curl localhost:8344/v1/workloads
//	curl localhost:8344/healthz
//	curl localhost:8344/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"

	// Registered through the sim registry alone; imported so the scheme
	// is selectable here even if no library path pulls it in.
	_ "repro/internal/nextline"
)

// options is the daemon's parsed command line.
type options struct {
	addr     string
	storeDir string
	workers  int
	queue    int
	cpus     int
	seed     int64
	length   uint64
	parallel int
	quick    bool
	grace    time.Duration

	journalPath string
	faultPlan   string

	clusterOn   bool
	workerOn    bool
	coordinator string
	advertise   string
	heartbeat   time.Duration

	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration

	pprofOn bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8344", "listen address")
	flag.StringVar(&o.storeDir, "store", "", "result and trace store directory (empty: results cached in memory only; each run generates its trace again unless a running grid or run shares it)")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", server.DefaultQueue, "job queue bound (negative: no queueing)")
	flag.IntVar(&o.cpus, "cpus", 4, "simulated processors")
	flag.Int64Var(&o.seed, "seed", 1, "workload generation seed")
	flag.Uint64Var(&o.length, "length", 1_200_000, "accesses per workload trace (half is warm-up)")
	flag.IntVar(&o.parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	flag.BoolVar(&o.quick, "quick", false, "abbreviated runs (overrides -cpus/-length)")
	flag.DurationVar(&o.grace, "shutdown-deadline", 15*time.Second, "bound on graceful shutdown: in-flight simulations are cancelled, not drained")
	flag.StringVar(&o.journalPath, "journal", "", "durable job journal path: jobs survive a kill and are recovered on restart (empty: journaling off)")
	flag.StringVar(&o.faultPlan, "fault-plan", "", "deterministic fault plan, inline JSON or @/path/to/plan.json (also "+fault.EnvPlan+"); chaos testing only")

	flag.BoolVar(&o.clusterOn, "cluster", false, "coordinator mode: scatter run cells across registered workers")
	flag.BoolVar(&o.workerOn, "worker", false, "worker mode: register with -coordinator and execute its cells")
	flag.StringVar(&o.coordinator, "coordinator", "", "coordinator base URL (worker mode), e.g. http://host:8344")
	flag.StringVar(&o.advertise, "advertise", "", "this daemon's base URL as reachable from peers (default: derived from the bound address)")
	flag.DurationVar(&o.heartbeat, "heartbeat", cluster.DefaultHeartbeatInterval, "cluster heartbeat interval (coordinator mode)")

	flag.DurationVar(&o.readTimeout, "http-read-timeout", 2*time.Minute, "HTTP request read timeout (0: none); large artifact uploads are exempt")
	flag.DurationVar(&o.writeTimeout, "http-write-timeout", 2*time.Minute, "HTTP response write timeout (0: none); event streams, synchronous figures/cells and artifact downloads are exempt")
	flag.DurationVar(&o.idleTimeout, "http-idle-timeout", 5*time.Minute, "HTTP keep-alive idle timeout (0: none)")

	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log format: text | json")
	flag.BoolVar(&o.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smsd:", err)
		os.Exit(2)
	}
	// The store (and any library code) logs through slog's default too.
	slog.SetDefault(logger)

	if err := run(logger, o); err != nil {
		logger.Error("exiting", "err", err)
		os.Exit(1)
	}
}

// buildLogger assembles the daemon's structured logger from the CLI
// flags.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// deriveAdvertise resolves the daemon's peer-visible base URL: the
// -advertise flag verbatim, or the bound address with unspecified hosts
// (":8344", "0.0.0.0") rewritten to loopback — right for single-machine
// clusters, which is what the default is for.
func deriveAdvertise(advertise string, bound net.Addr) string {
	if advertise != "" {
		return strings.TrimRight(advertise, "/")
	}
	host, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return "http://" + bound.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

func run(logger *slog.Logger, o options) error {
	if o.workerOn && o.clusterOn {
		return fmt.Errorf("-worker and -cluster are mutually exclusive (a worker cannot also coordinate)")
	}
	if o.workerOn && o.coordinator == "" {
		return fmt.Errorf("-worker needs -coordinator URL")
	}

	// The fault injector is nil unless a plan is given (-fault-plan or
	// SMSD_FAULT_PLAN), so production paths pay one pointer test per
	// instrumented site. A crash rule kills the daemon for real: exit
	// 137, the same face SIGKILL shows a supervisor.
	inj, err := fault.Load(o.faultPlan)
	if err != nil {
		return err
	}
	if inj == nil {
		if inj, err = fault.FromEnv(); err != nil {
			return err
		}
	}
	if inj != nil {
		inj.OnCrash(func(site string) {
			logger.Error("fault plan crashed the daemon", "site", site)
			os.Exit(137)
		})
		logger.Warn("fault injection enabled", "plan", o.faultPlan)
	}

	sessOptions := exp.CLIOptions(o.cpus, o.seed, o.length, o.parallel, o.quick)
	session := exp.NewSession(sessOptions)
	if err := exp.AttachStore(session, o.storeDir); err != nil {
		return err
	}
	session.Engine().SetFault(inj)
	if st := session.Store(); st != nil {
		st.SetFault(inj)
		logger.Info("result store attached", "dir", st.Dir())
	} else {
		logger.Info("no -store directory: results cached in memory only; traces are not reused across runs")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// An explicit listener (rather than ListenAndServe) means the logged
	// address is the one the kernel actually bound: with -addr :0 the
	// line below carries the assigned port, which the smoke scripts
	// parse to run daemons on collision-free ephemeral ports.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	selfURL := deriveAdvertise(o.advertise, ln.Addr())

	// One metrics registry for the whole daemon: server instruments and
	// (in coordinator mode) the cluster scheduler's share one /metrics.
	reg := obs.NewRegistry()

	var coord *cluster.Coordinator
	if o.clusterOn {
		coord, err = cluster.New(cluster.Config{
			Local:             session.Engine().LocalScheduler(),
			Store:             session.Store(),
			Workload:          session.Engine().Config().Workload,
			SelfURL:           selfURL,
			Metrics:           reg,
			HeartbeatInterval: o.heartbeat,
			Logger:            logger,
			Fault:             inj,
		})
		if err != nil {
			ln.Close()
			return err
		}
		defer coord.Close()
		// Every plan the engine executes from here on scatters across the
		// cluster; with zero workers registered it degrades to the local
		// pool, so a coordinator alone behaves exactly like a single node.
		session.Engine().SetScheduler(coord)
		logger.Info("cluster coordinator enabled", "advertise", selfURL, "heartbeat", o.heartbeat)
	}

	srv, err := server.New(server.Config{
		Session:     session,
		Workers:     o.workers,
		Queue:       o.queue,
		Logger:      logger,
		Pprof:       o.pprofOn,
		Coordinator: coord,
		Metrics:     reg,
		JournalPath: o.journalPath,
		Fault:       inj,
	})
	if err != nil {
		ln.Close()
		return err
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       o.readTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}

	sessOpts := session.Options()
	logger.Info("smsd listening",
		"addr", ln.Addr().String(), "cpus", sessOpts.CPUs, "seed", sessOpts.Seed,
		"length", sessOpts.Length, "cluster", o.clusterOn, "worker", o.workerOn,
		"journal", o.journalPath != "", "pprof", o.pprofOn)

	workerDone := make(chan struct{})
	if o.workerOn {
		capacity := sessOpts.Parallel
		if capacity <= 0 {
			capacity = runtime.GOMAXPROCS(0)
		}
		go func() {
			defer close(workerDone)
			_ = cluster.RunWorker(ctx, cluster.WorkerConfig{
				Coordinator: strings.TrimRight(o.coordinator, "/"),
				Advertise:   selfURL,
				Capacity:    capacity,
				Logger:      logger,
				Fault:       inj,
			})
		}()
	} else {
		close(workerDone)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	var serveErr error
	select {
	case serveErr = <-errc:
		// The listener failed on its own (e.g. port in use); stop the
		// daemon's jobs before returning.
		srv.Close()
	case <-ctx.Done():
		logger.Info("shutting down", "deadline", o.grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), o.grace)
		// Cancel every job first — in-flight simulations stop within one
		// progress interval, so even a synchronous figure request mid-
		// computation returns quickly (a half-finished multi-minute run
		// is cache-miss work we can redo, not something worth blocking
		// shutdown on). Only then drain the HTTP listener, which is now
		// fast, and finally stop the worker pool.
		srv.CancelJobs()
		_ = httpSrv.Shutdown(shutdownCtx)
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("worker pool did not drain before the deadline", "err", err)
		}
		cancel()
		serveErr = <-errc
	}
	<-workerDone
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return nil
}
