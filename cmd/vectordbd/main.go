// Command vectordbd runs a standalone vectordb server exposing the RESTful
// API of Sec. 2.1 on the given address.
//
// Usage:
//
//	vectordbd [-addr :19530] [-data DIR] [-query-timeout 0] [-batch-size 0]
//	          [-tier-dir DIR] [-cache-mb 256] [-tier-mapped-mb 0]
//	          [-recalibrate]
//
// With -data, segments persist to the directory; otherwise storage is
// in-memory. -query-timeout bounds each search request (0 = unbounded).
// Searches run alone while an execution worker is free; when every worker
// is busy, compatible searches wait together and run as one batch of at
// most -batch-size (0 = engine default, 1 turns batching off).
// With -tier-dir, sealed segments live out of core: each segment's stored
// object is mapped from an extent file under the directory (cold segments
// keep only the object), and scans run through a shared block cache capped
// at -cache-mb MiB. -tier-mapped-mb bounds the summed mmap'd bytes per
// collection (0 = unlimited; the LRU demotes extents past the budget).
//
// The query planner calibrates its cost model (kernel throughput per SIMD
// tier, SQ8 scan, single-row distance and bitset compile rates) on first
// use. With
// -tier-dir the measured profile persists to plan-calibration.json under
// the directory, keyed by CPU feature bits and GOMAXPROCS, so restarts on
// the same hardware skip the measurement pass; a stale or foreign profile
// is re-measured automatically. -recalibrate forces a fresh measurement
// pass even when a valid profile is on disk.
package main

import (
	"flag"
	"log"
	"net/http"
	"path/filepath"
	"time"

	"vectordb/internal/core"
	"vectordb/internal/objstore"
	"vectordb/internal/plan"
	"vectordb/internal/rest"
)

func main() {
	addr := flag.String("addr", ":19530", "listen address")
	data := flag.String("data", "", "data directory (empty = in-memory)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-search deadline (0 = none)")
	batchSize := flag.Int("batch-size", 0, "formed-batch size cap (0 = engine default, 1 disables batching)")
	tierDir := flag.String("tier-dir", "", "out-of-core extent directory (empty = segments stay in RAM)")
	cacheMB := flag.Int64("cache-mb", 256, "shared block-cache capacity in MiB (with -tier-dir)")
	mappedMB := flag.Int64("tier-mapped-mb", 0, "per-collection mmap budget in MiB (0 = unlimited, with -tier-dir)")
	recalibrate := flag.Bool("recalibrate", false, "force a fresh planner calibration pass, ignoring any persisted profile")
	flag.Parse()

	var store objstore.Store
	if *data != "" {
		fs, err := objstore.NewFS(*data)
		if err != nil {
			log.Fatalf("vectordbd: %v", err)
		}
		store = fs
	}
	db := core.NewDB(store)
	defer db.Close()
	if *tierDir != "" {
		db.EnableTiering(core.TierDefaults{
			Dir:         *tierDir,
			CacheBytes:  *cacheMB << 20,
			MappedBytes: *mappedMB << 20,
		})
		log.Printf("vectordbd tiering: extents under %s, cache %d MiB", *tierDir, *cacheMB)
	}

	// Planner calibration: persisted beside the tier dir when there is one
	// (restarts on the same hardware reuse the profile), in-process only
	// otherwise. -recalibrate forces a fresh measurement pass either way.
	if *tierDir != "" {
		path := filepath.Join(*tierDir, plan.CalibrationFile)
		prof, loaded, err := plan.LoadOrCalibrate(path, *recalibrate)
		if err != nil {
			log.Fatalf("vectordbd: planner calibration: %v", err)
		}
		db.Planner().UseProfile(prof)
		if loaded {
			log.Printf("vectordbd planner: loaded calibration %s (%s)", path, prof.Fingerprint)
		} else {
			log.Printf("vectordbd planner: calibrated and saved %s (%s)", path, prof.Fingerprint)
		}
	} else if *recalibrate {
		db.Planner().UseProfile(plan.Calibrate())
		log.Printf("vectordbd planner: calibrated in-memory (no -tier-dir to persist to)")
	}

	srv := rest.NewServerWithConfig(db, rest.ServerConfig{
		QueryTimeout: *queryTimeout,
		BatchSize:    *batchSize,
	})
	log.Printf("vectordbd listening on %s (data: %s)", *addr, dataDesc(*data))
	// A client that never finishes its request headers must not hold a
	// connection open forever; bodies are bounded by size in internal/rest.
	hs := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	if err := hs.ListenAndServe(); err != nil {
		log.Fatalf("vectordbd: %v", err)
	}
}

func dataDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
