// Command hoyand is Hoyan's verification-as-a-service daemon: it loads a
// network snapshot once, converges the base simulation, and then serves
// what-if queries over REST — each query a warm incremental fork instead of
// a cold CLI run.
//
// Usage:
//
//	hoyand -gen 1 -http :8080                    # serve a generated WAN
//	hoyand -configs DIR -http :8080              # serve a model directory
//	hoyand -gen 1 -write-configs DIR             # export a model directory and exit
//	hoyand -gen 1 -data-dir /var/hoyand          # + WAL-backed run history
//
// A model directory (core.LoadModel) holds one configuration file per device
// plus optional inputs.wire and flows.wire.
//
// Tenants come from -tenants FILE (a JSON array of tenant objects) or the
// single built-in tenant -api-key KEY. The daemon drains gracefully on
// SIGINT/SIGTERM: new queries get 503, queued and running ones finish.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hoyan/internal/config"
	"hoyan/internal/core"
	"hoyan/internal/durable"
	"hoyan/internal/gen"
	"hoyan/internal/netmodel"
	"hoyan/internal/serve"
	"hoyan/internal/telemetry"
)

func main() {
	httpAddr := flag.String("http", ":8080", "REST listen address")
	configDir := flag.String("configs", "", "model directory to serve: device configuration files plus optional inputs.wire and flows.wire")
	genScale := flag.Int("gen", 0, "serve a generated WAN at this scale (used when -configs is unset; 0 = scale 1)")
	writeConfigs := flag.String("write-configs", "", "write the loaded model as a model directory (which must be empty or absent) and exit")
	tenantsFile := flag.String("tenants", "", "JSON file with the tenant list (name, api_key, rate_per_sec, burst, max_in_flight, weight)")
	apiKey := flag.String("api-key", "hoyan-dev", "API key of the built-in default tenant (ignored with -tenants)")
	workers := flag.Int("workers", 4, "query worker pool size")
	queueDepth := flag.Int("queue", 256, "max queued queries before 429 backpressure")
	deadline := flag.Duration("deadline", 60*time.Second, "default per-query deadline")
	dataDir := flag.String("data-dir", "", "persist the run history under this directory (empty = no history)")
	fsyncMode := flag.String("fsync", "interval", "history WAL durability with -data-dir: always, interval, or never")
	historySize := flag.Int("history", 1024, "retained run-history entries")
	parallelism := flag.Int("parallelism", 0, "intra-engine parallelism for the base simulation: SPF, ECs, the cold BGP fixpoint's work units, forwarding (0 = all cores)")
	queryParallelism := flag.Int("query-parallelism", 0, "max simulation cores per query (SPF, ECs, forwarding; a warm fork's BGP fixpoint is sequential), so one tenant's sweep cannot starve others (0 = NumCPU/workers)")
	flag.Parse()

	fsync, err := durable.ParsePolicy(*fsyncMode)
	if err != nil {
		fatal(err)
	}

	network, inputs, flows, source, err := loadModel(*configDir, *genScale)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model from %s: %d devices, %d links, %d input routes, %d flows\n",
		source, len(network.Devices), len(network.Topo.Links()), len(inputs), len(flows))

	if *writeConfigs != "" {
		if err := core.WriteModel(*writeConfigs, network, inputs, flows); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote model directory %s\n", *writeConfigs)
		return
	}

	tenants, err := loadTenants(*tenantsFile, *apiKey)
	if err != nil {
		fatal(err)
	}

	reg := telemetry.NewRegistry()
	srv, err := serve.NewServer(serve.Config{
		Tenants:          tenants,
		QueueDepth:       *queueDepth,
		Workers:          *workers,
		QueryParallelism: *queryParallelism,
		DefaultDeadline:  *deadline,
		HistoryDir:       historyDir(*dataDir),
		HistorySize:      *historySize,
		Durable:          durable.Options{Fsync: fsync},
		Registry:         reg,
		Sim:              core.Options{Parallelism: *parallelism},
	})
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	if _, err := srv.LoadNetwork("boot", network, inputs, flows, true); err != nil {
		fatal(err)
	}
	fmt.Printf("base simulation converged in %s; queries are warm forks from here\n",
		time.Since(start).Round(time.Millisecond))

	l, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(l)
	fmt.Printf("hoyand serving on http://%s (tenants: %s)\n", l.Addr(), tenantNames(tenants))

	// Drain on SIGINT/SIGTERM: stop accepting (the listener closes last-in
	// first-out AFTER the query drain, so in-flight status polls still work
	// while queries finish).
	ctx, stop := serve.SignalContext(context.Background())
	defer stop()
	<-ctx.Done()
	fmt.Println("signal received; draining")

	var closers serve.Closers
	closers.Add("http listener", func() error {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	})
	dctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "hoyand: drain:", err)
	}
	if err := closers.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hoyand:", err)
	}
	fmt.Println("drained; bye")
}

// loadModel reads the model directory, printing config.Validate's findings
// as warnings, or else generates a WAN.
func loadModel(configDir string, genScale int) (*config.Network, []netmodel.Route, []netmodel.Flow, string, error) {
	if configDir != "" {
		network, inputs, flows, err := core.LoadModel(configDir, 0)
		if err != nil {
			return nil, nil, nil, "", err
		}
		for _, f := range network.Validate() {
			fmt.Fprintln(os.Stderr, "warning:", f.String())
		}
		return network, inputs, flows, configDir, nil
	}
	scale := max(genScale, 1)
	out := gen.Generate(gen.WAN(scale))
	return out.Net, out.Inputs, out.Flows, fmt.Sprintf("gen.WAN(%d)", scale), nil
}

func loadTenants(file, apiKey string) ([]serve.TenantConfig, error) {
	if file == "" {
		return []serve.TenantConfig{{Name: "default", APIKey: apiKey}}, nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var tenants []serve.TenantConfig
	if err := json.Unmarshal(data, &tenants); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", file, err)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("%s declares no tenants", file)
	}
	return tenants, nil
}

func historyDir(dataDir string) string {
	if dataDir == "" {
		return ""
	}
	return filepath.Join(dataDir, "history")
}

func tenantNames(tenants []serve.TenantConfig) string {
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = t.Name
	}
	return strings.Join(names, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hoyand:", err)
	os.Exit(1)
}
