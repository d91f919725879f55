package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"pruner/internal/costmodel"
	"pruner/internal/ir"
	"pruner/internal/store"
)

// Repetitions of each direct store call; the report gives the median.
const (
	storeOpens      = 5
	storeReadCalls  = 200
	storeWarmCalls  = 20
	storeAppendRecs = 30
)

// storeFromRecords builds a store holding a session's measurements,
// appended one round (10 records) at a time as a tuning job would, and
// times the store's public functions on it.
func storeFromRecords(cfg runConfig, device string, tasks []*ir.Task, recs []costmodel.Record) ([]metric, error) {
	dir, err := os.MkdirTemp(cfg.Scratch, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(recs); i += 10 {
		if err := st.Append(device, recs[i:min(i+10, len(recs))]); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return storeDirect(cfg, dir, device, [][]*ir.Task{tasks}, len(recs))
}

// storeDirect times the store's public functions on a copy of src, one
// group of tasks (one network) at a time. Covered is asked with
// minTotal, a depth the store holds, so it answers as on the hit path.
func storeDirect(cfg runConfig, src, device string, groups [][]*ir.Task, minTotal int) ([]metric, error) {
	dir, err := os.MkdirTemp(cfg.Scratch, "store-copy-")
	if err != nil {
		return nil, err
	}
	if err := copyTree(src, dir); err != nil {
		return nil, err
	}
	var opens []float64
	for i := 0; i < storeOpens; i++ {
		start := time.Now()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(start).Seconds())
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	var covered, best, warm, appends []float64
	for _, tasks := range groups {
		ids := make([]string, len(tasks))
		for i, t := range tasks {
			ids[i] = t.ID
		}
		for i := 0; i < storeReadCalls; i++ {
			start := time.Now()
			ok := st.Covered(device, tasks, minTotal)
			covered = append(covered, float64(time.Since(start).Nanoseconds())/1e3)
			if !ok {
				return nil, fmt.Errorf("store copy does not cover %d records of %s", minTotal, tasks[0].ID)
			}
			start = time.Now()
			st.BestForTasks(device, ids)
			best = append(best, float64(time.Since(start).Nanoseconds())/1e3)
		}
		var recs []costmodel.Record
		for i := 0; i < storeWarmCalls; i++ {
			start := time.Now()
			recs, err = st.WarmStart(device, tasks)
			warm = append(warm, float64(time.Since(start).Nanoseconds())/1e6)
			if err != nil {
				return nil, err
			}
		}
		batch := recs[:min(storeAppendRecs, len(recs))]
		for i := 0; i < storeWarmCalls; i++ {
			start := time.Now()
			err := st.Append(device, batch)
			appends = append(appends, float64(time.Since(start).Nanoseconds())/1e6)
			if err != nil {
				return nil, err
			}
		}
	}
	n := func(what string, k int) string { return fmt.Sprintf("median of %d direct %s calls", k, what) }
	return []metric{
		{"store.open_s", median(opens), "s", n("Open", len(opens))},
		{"store.covered_us", median(covered), "us", n("Covered", len(covered))},
		{"store.best_for_tasks_us", median(best), "us", n("BestForTasks", len(best))},
		{"store.warmstart_ms", median(warm), "ms", n("WarmStart", len(warm))},
		{"store.append_ms", median(appends), "ms", n(fmt.Sprintf("Append(%d records)", storeAppendRecs), len(appends))},
	}, nil
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
