package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"transn/internal/ordered"
)

// anomalyPrefix names bundle directories: anomaly-<unixms>-<rule>.
// Retention globs on it, so nothing else may live under the anomaly
// dir with this prefix.
const anomalyPrefix = "anomaly-"

// anomalyKeep bounds retention: after a capture, only the newest
// anomalyKeep bundle directories survive.
const anomalyKeep = 8

// AnomalyConfig bounds the anomaly capturer.
type AnomalyConfig struct {
	// Dir is the directory bundles are written under. Required; created
	// on first capture.
	Dir string
	// Cooldown is the minimum spacing between captures — a flapping
	// rule must not fill the disk. 0 means 30s.
	Cooldown time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (c AnomalyConfig) withDefaults() AnomalyConfig {
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// AnomalyCapturer writes bounded-retention anomaly bundles: per tripped
// rule, a directory holding heap and goroutine profiles, the violation
// record, and any extra documents the caller attaches (the server adds
// its history and slow-ring dumps). The capturer is safe for concurrent
// use; captures inside the cooldown window are skipped.
type AnomalyCapturer struct {
	cfg AnomalyConfig

	mu   sync.Mutex
	last time.Time
}

// NewAnomalyCapturer returns a capturer for the directory; it fails
// fast when no directory is configured.
func NewAnomalyCapturer(cfg AnomalyConfig) (*AnomalyCapturer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: anomaly capturer needs a directory")
	}
	return &AnomalyCapturer{cfg: cfg.withDefaults()}, nil
}

// sanitizeRuleName maps a rule name onto the filesystem-safe charset
// used in bundle directory names.
func sanitizeRuleName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	if b.Len() == 0 {
		return "rule"
	}
	return b.String()
}

// Capture writes one bundle for the event and prunes old bundles. The
// extras map attaches additional documents by file name (e.g.
// "history.json"); each writer runs with the file already open, and an
// extra's error aborts the capture. Each file is written under a temp
// name and renamed into place, so a file in a bundle is always
// complete. Captures within the cooldown of the previous one are
// skipped (returned dir is empty, error nil). A nil capturer skips
// silently.
func (a *AnomalyCapturer) Capture(ev WatchEvent, extras map[string]func(io.Writer) error) (string, error) {
	if a == nil {
		return "", nil
	}
	now := time.Now()
	a.mu.Lock()
	if !a.last.IsZero() && now.Sub(a.last) < a.cfg.Cooldown {
		a.mu.Unlock()
		return "", nil
	}
	a.last = now
	a.mu.Unlock()

	dir := filepath.Join(a.cfg.Dir, fmt.Sprintf("%s%d-%s", anomalyPrefix, now.UnixMilli(), sanitizeRuleName(ev.Rule)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: anomaly bundle: %w", err)
	}
	writeFile := func(name string, fn func(io.Writer) error) error {
		if err := writeFileAtomic(filepath.Join(dir, name), fn); err != nil {
			return fmt.Errorf("obs: anomaly bundle %s: %w", name, err)
		}
		return nil
	}
	if err := writeFile("watchdog.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(ev)
	}); err != nil {
		return "", err
	}
	if err := writeFile("heap.pprof", func(w io.Writer) error {
		return pprof.Lookup("heap").WriteTo(w, 0)
	}); err != nil {
		return "", err
	}
	if err := writeFile("goroutine.pprof", func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 0)
	}); err != nil {
		return "", err
	}
	for _, name := range ordered.Keys(extras) {
		if err := writeFile(name, extras[name]); err != nil {
			return "", err
		}
	}
	if err := a.prune(); err != nil {
		return "", err
	}
	return dir, nil
}

// writeFileAtomic writes path through a temp file beside it: fn fills
// the temp file, which is synced and then renamed over path. A reader
// polling for path therefore sees the complete file or none, and a
// failed write leaves neither path nor the temp file behind.
func writeFileAtomic(path string, fn func(io.Writer) error) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = fn(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// prune deletes the oldest bundle directories beyond the retention
// bound. Bundle names embed a millisecond timestamp, so lexicographic
// order on the equal-width numeric prefix is capture order; sorting
// newest-first and deleting from index anomalyKeep onward keeps the most
// recent bundles.
func (a *AnomalyCapturer) prune() error {
	entries, err := os.ReadDir(a.cfg.Dir)
	if err != nil {
		return fmt.Errorf("obs: anomaly retention: %w", err)
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), anomalyPrefix) {
			bundles = append(bundles, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(bundles)))
	for _, name := range bundles[min(len(bundles), anomalyKeep):] {
		if err := os.RemoveAll(filepath.Join(a.cfg.Dir, name)); err != nil {
			return fmt.Errorf("obs: anomaly retention: %w", err)
		}
	}
	return nil
}
