// Command emtop is a live terminal dashboard for a running empart job: it
// scrapes the job's /metrics endpoint (emsort/emsplit/embench -metrics-addr)
// and renders phases, I/O counters, pipeline health and sparkline latency
// histograms, refreshing in place like top(1).
//
//	emsort -in big.txt -out sorted.txt -backing /tmp/d.dat -metrics-addr 127.0.0.1:9101 &
//	emtop -url http://127.0.0.1:9101/metrics
//
// With -once it prints a single frame and exits (scriptable; also how the
// smoke tests drive it).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/emio/metrics"
)

// scrape fetches url and parses the Prometheus exposition into a snapshot.
func scrape(url string) (metrics.Snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return metrics.Snapshot{}, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	return metrics.ParsePrometheus(resp.Body)
}

// runOnce drives one -once invocation end to end — scrape, parse, render a
// single frame to out — and is the seam the smoke tests exercise.
func runOnce(url string, width int, out io.Writer) error {
	snap, err := scrape(url)
	if err != nil {
		return err
	}
	fmt.Fprint(out, metrics.RenderDashboard(snap, width))
	return nil
}

func main() {
	var (
		url      = flag.String("url", "http://127.0.0.1:9100/metrics", "metrics endpoint to scrape")
		interval = flag.Duration("interval", time.Second, "refresh interval")
		width    = flag.Int("width", 0, "clamp lines to this many columns (0 = no clamp)")
		once     = flag.Bool("once", false, "render one frame and exit")
	)
	flag.Parse()

	if *once {
		if err := runOnce(*url, *width, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "emtop: %v\n", err)
			os.Exit(1)
		}
		return
	}

	d := metrics.StartDash(os.Stdout, *interval, *width, func() (metrics.Snapshot, error) {
		return scrape(*url)
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	d.Stop()
	fmt.Println()
}
