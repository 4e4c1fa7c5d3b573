package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"

	"vectordb/internal/obs"
	"vectordb/internal/obs/promtext"
)

// TestConcurrentWritersAndScrape hammers counters, histograms, traces and
// the query log from many goroutines while a scraper renders /metrics
// output. Run under -race (make ci does) to prove the hot paths are
// synchronization-clean.
func TestConcurrentWritersAndScrape(t *testing.T) {
	reg := obs.NewRegistry()
	qlog := obs.NewQueryLog(32, 16, time.Nanosecond)
	const (
		writers   = 8
		perWriter = 500
	)
	var writersWG, auxWG sync.WaitGroup
	stop := make(chan struct{})

	// Scraper: render continuously, and parse occasionally to make sure
	// concurrent output is always well-formed.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%10 == 0 {
				var buf writerBuffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				if _, err := promtext.Parse(buf.b); err != nil {
					t.Errorf("scrape not parseable under concurrency: %v", err)
					return
				}
			} else if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Readers of the query log race with recorders.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = qlog.Recent()
			_ = qlog.Slow()
		}
	}()

	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			c := reg.Counter("race_ops_total", "writer", string(rune('a'+w)))
			shared := reg.Counter("race_shared_total")
			h := reg.Histogram("race_lat_seconds", nil)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				shared.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
				r := obs.NewQueryRecord("race")
				sp := r.Start(obs.Segments)
				r.Start(obs.SegmentScan).End()
				sp.End()
				r.SetInt(obs.BatchOccupancy, int64(i))
				qlog.Add(r)
			}
		}(w)
	}

	writersWG.Wait()
	close(stop)
	auxWG.Wait()

	if got := reg.Counter("race_shared_total").Value(); got != writers*perWriter {
		t.Fatalf("shared counter = %d, want %d", got, writers*perWriter)
	}
	if got := reg.Histogram("race_lat_seconds", nil).Count(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
	if got := qlog.Total(); got != writers*perWriter {
		t.Fatalf("qlog total = %d, want %d", got, writers*perWriter)
	}
}

// TestReadRecordsAreValues: what Recent and Slow return is the reader's
// own: recorders overwriting every ring slot more than twice over, from
// several goroutines, leave entries read earlier unchanged.
func TestReadRecordsAreValues(t *testing.T) {
	const capacity = 8
	qlog := obs.NewQueryLog(capacity, capacity, time.Nanosecond)
	record := func(op string, n int) {
		r := obs.NewQueryRecord(op)
		r.SetString(obs.PlanChoice, op)
		r.SetInt(obs.PlanSegments, int64(n))
		p := r.Start(obs.Plan)
		time.Sleep(time.Microsecond)
		p.End()
		qlog.Add(r)
	}
	for i := 0; i < capacity; i++ {
		record("first", i)
	}
	recent, slow := qlog.Recent(), qlog.Slow()
	want, err := json.Marshal([]any{recent, slow})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < capacity; i++ { // 4 × capacity queries in all
				record("second", 100+i)
				_ = qlog.Recent()
			}
		}()
	}
	wg.Wait()
	got, err := json.Marshal([]any{recent, slow})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("entries read before the overwrite changed:\n%s\nwas\n%s", got, want)
	}
	if now := qlog.Recent(); now[0].Op != "second" || recent[0].Op != "first" {
		t.Fatalf("newest entry %q, earlier read %q", now[0].Op, recent[0].Op)
	}
}

// TestReregisterWhileScraping: re-registering a scrape-time series (a
// reader rebuilt after a crash takes over its counters this way) while
// another goroutine scrapes is synchronization-clean under -race, and
// the scrape reads one of the registered funcs, never a torn series.
func TestReregisterWhileScraping(t *testing.T) {
	reg := obs.NewRegistry()
	reg.CounterFunc("vectordb_race_rereg_total", func() int64 { return 1 }, "reader", "r0")
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		v := int64(i)
		reg.CounterFunc("vectordb_race_rereg_total", func() int64 { return v }, "reader", "r0")
		reg.GaugeFunc("vectordb_race_rereg_gauge", func() int64 { return v }, "reader", "r0")
	}
	close(stop)
	<-done
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `vectordb_race_rereg_total{reader="r0"} 1999`; !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("exposition lacks %q:\n%s", want, buf.String())
	}
}

type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
