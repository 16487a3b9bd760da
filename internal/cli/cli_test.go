package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	empart "repro"
)

// TestRenderPrefixesTypedErrors pins the exit line of each typed failure of
// the resilience layer, wrapped as the algorithms wrap them, and the
// pass-through of every other error.
func TestRenderPrefixesTypedErrors(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("extsort: merge: %w", err) }
	for _, tc := range []struct {
		err    error
		prefix string
	}{
		{wrap(&empart.CorruptionError{File: "run-3", Block: 12}), "data corruption detected: "},
		{wrap(&empart.TransientError{Op: "read", Attempts: 4, Err: errors.New("EIO")}), "giving up after 4 attempt(s): "},
		{wrap(&empart.CancelledError{Cause: errors.New("received interrupt")}), "cancelled: "},
		{wrap(&empart.ResourceError{Resource: "disk", Err: empart.ErrDiskBudget}), "out of disk: "},
	} {
		got := render(tc.err)
		if want := tc.prefix + tc.err.Error(); got != want {
			t.Errorf("render(%T chain) = %q, want %q", errors.Unwrap(tc.err), got, want)
		}
	}
	plain := wrap(errors.New("no input"))
	if got := render(plain); got != plain.Error() {
		t.Errorf("render(untyped) = %q, want it unchanged", got)
	}
}

// TestRegisterFlagSets pins which shared flags each kind of command takes,
// and their defaults.
func TestRegisterFlagSets(t *testing.T) {
	defaults := func(backend bool) map[string]string {
		fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
		Register(fs, backend)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		return got
	}
	sweep := map[string]string{
		"m": "4096", "b": "32", "trace": "false", "metrics-addr": "", "progress": "0s", "top": "false",
	}
	job := map[string]string{
		"workers": "0", "backing": "", "uring": "false", "checksum": "false", "retry": "0",
		"log": "", "disk-budget": "0", "otlp": "",
	}
	for k, v := range sweep {
		job[k] = v
	}
	for _, tc := range []struct {
		backend bool
		want    map[string]string
	}{{false, sweep}, {true, job}} {
		got := defaults(tc.backend)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("Register(backend=%v) flags = %v, want %v", tc.backend, got, tc.want)
		}
	}
}

// TestObserveOffIsNil: without a telemetry flag no observer starts, and the
// nil *Observers is safe to attach and stop.
func TestObserveOffIsNil(t *testing.T) {
	obs, err := (&Flags{}).Observe("cmd", 0, io.Discard)
	if err != nil || obs != nil {
		t.Fatalf("Observe with no telemetry flag = %v, %v; want nil, nil", obs, err)
	}
	sys, err := (&Flags{M: 64, B: 8}).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	obs.Attach(sys)
	obs.Stop()
	if sys.MetricsRegistry() != nil || sys.Tracer() != nil {
		t.Error("nil observers attached telemetry")
	}
}

// TestPartialCostOnlyOnCancel: the partial-cost line is printed for a
// cancelled job only.
func TestPartialCostOnlyOnCancel(t *testing.T) {
	sys, err := (&Flags{M: 64, B: 8}).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var sb strings.Builder
	PartialCost(&sb, "cmd", sys, errors.New("no input"))
	PartialCost(&sb, "cmd", sys, nil)
	if sb.Len() != 0 {
		t.Errorf("partial cost printed for a job that was not cancelled: %q", sb.String())
	}
	PartialCost(&sb, "cmd", sys, fmt.Errorf("sort: %w", &empart.CancelledError{Cause: errors.New("stop")}))
	if want := "cmd: cancelled; partial cost reads=0 writes=0 total=0\n"; sb.String() != want {
		t.Errorf("partial cost line %q, want %q", sb.String(), want)
	}
}

// TestObserveProgressTotal: the progress reporter counts toward the total it
// is given.
func TestObserveProgressTotal(t *testing.T) {
	var sb strings.Builder
	obs, err := (&Flags{Progress: time.Hour}).Observe("cmd", 123456, &sb)
	if err != nil {
		t.Fatal(err)
	}
	obs.Stop()
	if !strings.HasPrefix(sb.String(), "progress: 0/123.5k ios (0.0%)") {
		t.Errorf("progress line %q lacks the total", sb.String())
	}
}
