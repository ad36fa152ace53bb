// Command tipd is the TIP profiling daemon: a long-running HTTP service
// that accepts profiling jobs, runs them on a bounded worker pool over the
// capture/replay pipeline, and serves the results as JSON profiles or
// gzipped pprof protobufs.
//
// This is the paper's §3.1 deployment model as a service: the simulator
// stands in for the TIP hardware, tipd plays the role of the perf server
// that records samples online and rebuilds profiles offline on demand.
// Every job simulates the Table 1 core. A job names one benchmark (bench,
// seed, scale) or, with "cores":[...], a multi-programmed set run lockstep
// on one shared-LLC system; either way it runs as a list of cores, each
// profiled against its own Oracle, and on a cache miss each core's profiler
// matrix records that core's capture as the run streams. Repeated jobs for
// the same key reuse the cached captures and skip the cycle-level
// simulation entirely (a core set is keyed by its order, and stored one
// capture per core). With -store, every capture is also written to a
// content-addressed store directory the moment it is simulated, so a
// restarted daemon — even one that was killed rather than drained — serves
// known keys from disk without simulating again. Jobs submitted with
// "sampled":true instead run under sampled simulation (detailed measurement
// windows alternating with functional fast-forward) and bypass the capture
// cache — there is no full trace to store. Multicore jobs export per-core
// pprof via ?core=N with a "core" sample label. A job spec over 1 MiB is
// refused with 413.
//
// Example:
//
//	tipd -listen :7171 -store /var/tmp/tipstore &
//	curl -s localhost:7171/v1/jobs -d '{"bench":"imagick","scale":200000}'
//	curl -s localhost:7171/v1/jobs/j00000001
//	curl -s -o prof.pb.gz localhost:7171/v1/jobs/j00000001/pprof?profiler=TIP
//	go tool pprof -top prof.pb.gz
//
// Multicore:
//
//	curl -s localhost:7171/v1/jobs \
//	    -d '{"cores":[{"bench":"mcf","scale":200000},{"bench":"x264","scale":200000}]}'
//	curl -s -o mcf.pb.gz 'localhost:7171/v1/jobs/j00000002/pprof?profiler=TIP&core=0'
//	go tool pprof -tags mcf.pb.gz   # samples labelled core=0
//
// Fleet: tipd also scales out. One instance runs as the coordinator
// (-coordinator), consistent-hashing submissions by capture key across
// worker instances that register with it (-join), all pointing -store at
// one shared directory so a capture simulated on any node is served warm by
// every node:
//
//	tipd -coordinator -listen :7270 &
//	tipd -listen :7271 -join http://localhost:7270 -store /var/tmp/tipstore &
//	tipd -listen :7272 -join http://localhost:7270 -store /var/tmp/tipstore &
//	curl -s localhost:7270/v1/jobs -d '{"bench":"imagick","scale":200000}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/tipprof/tip/internal/fleet"
	"github.com/tipprof/tip/internal/server"
)

// options is tipd's parsed command line.
type options struct {
	listen       string
	storeDir     string
	server       server.Config // Store is opened by main from storeDir
	coordinator  bool
	join         string
	advertise    string
	name         string
	heartbeat    time.Duration
	lameduck     time.Duration
	drainTimeout time.Duration
}

// maxCacheMB is the largest -cache-mb whose byte count fits in a uint64.
const maxCacheMB = 1<<44 - 1

// parseFlags parses tipd's arguments (without the program name). Its errors
// are usage errors; -h and -help return flag.ErrHelp.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("tipd", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7171", "address to serve HTTP on")
	fs.IntVar(&o.server.Workers, "workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.server.QueueDepth, "queue", 16, "max queued jobs before submissions get 429")
	fs.IntVar(&o.server.CacheEntries, "cache-entries", 8, "max captures kept in the in-memory cache")
	cacheMB := fs.Int64("cache-mb", 1024, "max megabytes of encoded captures cached")
	fs.StringVar(&o.storeDir, "store", "", "content-addressed capture store directory: a local one keeps captures across restarts, a shared one serves them to every fleet node (empty = memory only)")
	fs.DurationVar(&o.server.JobTimeout, "job-timeout", 10*time.Minute, "per-job execution deadline")
	fs.IntVar(&o.server.MaxRetainedJobs, "retain", 256, "finished jobs kept for retrieval")

	fs.BoolVar(&o.coordinator, "coordinator", false, "run as the fleet coordinator instead of a worker")
	fs.StringVar(&o.join, "join", "", "coordinator URL to register with (worker joins the fleet)")
	fs.StringVar(&o.advertise, "advertise", "", "URL the coordinator dials for this node (default http://<listen>)")
	fs.StringVar(&o.name, "name", "", "fleet node name (default host:port of -listen)")
	fs.DurationVar(&o.heartbeat, "heartbeat", time.Second, "fleet heartbeat interval")
	fs.DurationVar(&o.lameduck, "lameduck", 0, "after drain, keep serving reads this long before closing HTTP")
	fs.DurationVar(&o.drainTimeout, "draintimeout", time.Minute, "how long shutdown waits for in-flight jobs before aborting them")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", time.Minute, "alias for -draintimeout")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if *cacheMB < 0 || *cacheMB > maxCacheMB {
		err := fmt.Errorf("-cache-mb %d out of range [0, %d]", *cacheMB, int64(maxCacheMB))
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return options{}, err
	}
	o.server.CacheBytes = uint64(*cacheMB) << 20
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	if o.coordinator {
		runCoordinator(o.listen, o.drainTimeout)
		return
	}

	if o.storeDir != "" {
		o.server.Store, err = fleet.OpenStore(o.storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tipd:", err)
			os.Exit(1)
		}
	}

	s, err := server.New(o.server)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tipd:", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: o.listen, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("tipd: serving on %s", o.listen)

	// Fleet membership: heartbeat our health to the coordinator so we stay
	// on its ring. The same snapshot announces drain later.
	var member *fleet.Member
	beatCtx, stopBeats := context.WithCancel(context.Background())
	defer stopBeats()
	if o.join != "" {
		member = &fleet.Member{
			Coordinator: strings.TrimRight(o.join, "/"),
			Name:        nodeName(o.name, o.listen),
			URL:         advertiseURL(o.advertise, o.listen),
			Interval:    o.heartbeat,
			Snapshot:    s.NodeHealth,
		}
		go member.Run(beatCtx)
		log.Printf("tipd: joined fleet at %s as %s (%s)", member.Coordinator, member.Name, member.URL)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("tipd: %s received, draining (timeout %s)", sig, o.drainTimeout)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "tipd:", err)
		os.Exit(1)
	}

	// Drain sequence: stop accepting first and tell the coordinator so it
	// routes new jobs elsewhere, then let accepted jobs finish (bounded by
	// -draintimeout), then keep HTTP up through the lame-duck window so
	// clients can still fetch the results of jobs we accepted — gate (c) of
	// a fleet drain is that no accepted job is lost.
	s.StartDrain()
	if member != nil {
		if err := member.Beat(beatCtx); err != nil {
			log.Printf("tipd: drain heartbeat: %v", err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drainErr := s.Shutdown(ctx)
	if o.lameduck > 0 {
		log.Printf("tipd: drained, serving reads for %s", o.lameduck)
		time.Sleep(o.lameduck)
	}
	stopBeats()
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	if err := hs.Shutdown(hctx); err != nil {
		log.Printf("tipd: http shutdown: %v", err)
	}
	if drainErr != nil {
		log.Printf("tipd: shutdown: %v", drainErr)
		os.Exit(1)
	}
	log.Printf("tipd: drained cleanly")
}

// runCoordinator serves the fleet coordinator until SIGTERM.
func runCoordinator(listen string, drainTimeout time.Duration) {
	c := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	hs := &http.Server{Addr: listen, Handler: c.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("tipd: coordinator serving on %s", listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("tipd: coordinator: %s received, shutting down", sig)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "tipd:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("tipd: coordinator: http shutdown: %v", err)
	}
}

// nodeName defaults the fleet node name to the listen address with an
// explicit host, so ":7171" and "0.0.0.0:7171" don't collide as names.
func nodeName(name, listen string) string {
	if name != "" {
		return name
	}
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// advertiseURL picks the URL the coordinator dials: the explicit -advertise
// if given, else http://<listen> with a loopback host filled in.
func advertiseURL(adv, listen string) string {
	if adv != "" {
		return strings.TrimRight(adv, "/")
	}
	return "http://" + nodeName("", listen)
}
