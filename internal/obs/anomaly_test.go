package obs

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNewAnomalyCapturerValidation(t *testing.T) {
	if _, err := NewAnomalyCapturer(AnomalyConfig{}); err == nil {
		t.Fatal("capturer accepted an empty directory")
	}
}

func TestSanitizeRuleName(t *testing.T) {
	cases := map[string]string{
		"p99-budget":   "p99-budget",
		"a b/c":        "a_b_c",
		"..":           "__",
		"":             "rule",
		"Heap_Ceiling": "Heap_Ceiling",
	}
	for in, want := range cases {
		if got := sanitizeRuleName(in); got != want {
			t.Errorf("sanitizeRuleName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAnomalyCaptureBundle(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAnomalyCapturer(AnomalyConfig{Dir: dir, Keep: 4, Cooldown: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ev := WatchEvent{Rule: "p99-budget", Code: WatchCodeP99, WindowSeconds: 60, Observed: 0.2, Budget: 0.05, UnixMS: 12345}
	bundle, err := a.Capture(ev, map[string]func(io.Writer) error{
		"history.json": func(w io.Writer) error { _, err := w.Write([]byte("{}\n")); return err },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(bundle), anomalyPrefix) || !strings.HasSuffix(bundle, "-p99-budget") {
		t.Fatalf("bundle dir %q has the wrong shape", bundle)
	}

	data, err := os.ReadFile(filepath.Join(bundle, "watchdog.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got WatchEvent
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != ev {
		t.Fatalf("watchdog.json = %+v, want %+v", got, ev)
	}
	for _, name := range []string{"heap.pprof", "goroutine.pprof", "history.json"} {
		fi, err := os.Stat(filepath.Join(bundle, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("bundle file %s is empty", name)
		}
	}

	// A failing extra aborts the capture with its error, and the bytes
	// it wrote before failing land in no file: neither broken.json nor
	// its temp file exists in any bundle.
	time.Sleep(time.Microsecond)
	if _, err := a.Capture(ev, map[string]func(io.Writer) error{
		"broken.json": func(w io.Writer) error {
			if _, err := w.Write([]byte(`{"torn":`)); err != nil {
				return err
			}
			return io.ErrUnexpectedEOF
		},
	}); err == nil {
		t.Fatal("failing extra did not abort the capture")
	}
	files, err := filepath.Glob(filepath.Join(dir, anomalyPrefix+"*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := filepath.Base(f); name == "broken.json" || strings.HasPrefix(name, ".") {
			t.Fatalf("failed capture left %s behind", f)
		}
	}

	// Nil capturer skips silently.
	var nilA *AnomalyCapturer
	if d, err := nilA.Capture(ev, nil); d != "" || err != nil {
		t.Fatalf("nil capturer returned (%q, %v)", d, err)
	}
}

func TestAnomalyCooldown(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAnomalyCapturer(AnomalyConfig{Dir: dir, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ev := WatchEvent{Rule: "r", Code: WatchCodeHeap}
	first, err := a.Capture(ev, nil)
	if err != nil || first == "" {
		t.Fatalf("first capture = (%q, %v)", first, err)
	}
	second, err := a.Capture(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second != "" {
		t.Fatalf("capture inside the cooldown wrote %q, want skip", second)
	}
}

func TestAnomalyRetention(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAnomalyCapturer(AnomalyConfig{Dir: dir, Keep: 2, Cooldown: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	var bundles []string
	for i := 0; i < 3; i++ {
		b, err := a.Capture(WatchEvent{Rule: "r", Code: WatchCodeHeap}, nil)
		if err != nil || b == "" {
			t.Fatalf("capture %d = (%q, %v)", i, b, err)
		}
		bundles = append(bundles, b)
		// Distinct millisecond timestamps keep the retention order total.
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := os.Stat(bundles[0]); !os.IsNotExist(err) {
		t.Fatalf("oldest bundle survived retention: %v", err)
	}
	for _, b := range bundles[1:] {
		if _, err := os.Stat(b); err != nil {
			t.Fatalf("retained bundle missing: %v", err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("anomaly dir holds %d entries, want 2", len(entries))
	}
}
