// Command vectordbd runs a standalone vectordb server exposing the RESTful
// API of Sec. 2.1 on the given address.
//
// Usage:
//
//	vectordbd [-addr :19530] [-data DIR] [-query-timeout 0] [-batch-size 0]
//	          [-tier-dir DIR] [-tier-mapped-mb 0]
//
// With -data, segments persist to the directory; otherwise storage is
// in-memory. -query-timeout bounds each search request (0 = unbounded).
// Searches run alone while an execution worker is free; when every worker
// is busy they queue, and the next worker to free takes the oldest along
// with its compatible queued peers as one batch of at most -batch-size
// (0 = engine default, 1 turns batching off).
// With -tier-dir, sealed segments live out of core: each segment's stored
// object is mapped from an extent file under the directory (cold segments
// keep only the object), and scans read the mapped bytes in place.
// -tier-mapped-mb bounds the summed mmap'd bytes per collection, the
// tier's one residency bound (0 = unlimited; the LRU demotes extents past
// the budget).
//
// The query planner prices its plans from fixed measured rates (kernel
// throughput per SIMD tier, SQ8 scan, single-row distance and bitset
// compile), so a start runs no measurement pass and writes no file.
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"vectordb/internal/core"
	"vectordb/internal/exec"
	"vectordb/internal/objstore"
	"vectordb/internal/rest"
)

func main() {
	addr := flag.String("addr", ":19530", "listen address")
	data := flag.String("data", "", "data directory (empty = in-memory)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-search deadline (0 = none)")
	batchSize := flag.Int("batch-size", 0, "formed-batch size cap (0 = engine default, 1 disables batching)")
	tierDir := flag.String("tier-dir", "", "out-of-core extent directory (empty = segments stay in RAM)")
	mappedMB := flag.Int64("tier-mapped-mb", 0, "per-collection mmap budget in MiB (0 = unlimited, with -tier-dir)")
	flag.Parse()

	var store objstore.Store
	if *data != "" {
		fs, err := objstore.NewFS(*data)
		if err != nil {
			log.Fatalf("vectordbd: %v", err)
		}
		store = fs
	}
	db := core.NewDBWithExec(store, exec.Config{MaxBatch: *batchSize})
	defer db.Close()
	if *tierDir != "" {
		db.EnableTiering(core.TierDefaults{
			Dir:         *tierDir,
			MappedBytes: *mappedMB << 20,
		})
		log.Printf("vectordbd tiering: extents under %s, mapped budget %d MiB per collection (0 = unlimited)", *tierDir, *mappedMB)
	}

	srv := rest.NewServerWithConfig(db, rest.ServerConfig{QueryTimeout: *queryTimeout})
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
