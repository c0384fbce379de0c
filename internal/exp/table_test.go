package exp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorTable(t *testing.T) {
	c := NewCollector()
	// Two handled jobs (accurate, quick queues) and one fallback job
	// (inaccurate, long queue).
	c.RecordScheduled("h1", Epoch, 2*time.Second, true, 0.9)
	c.RecordOutcome("h1", 10*time.Second, 100*time.Second, false)
	c.RecordScheduled("h2", Epoch, 4*time.Second, true, 0.7)
	c.RecordOutcome("h2", 20*time.Second, 200*time.Second, false)
	c.RecordScheduled("f1", Epoch, 30*time.Second, false, 0.1)
	c.RecordOutcome("f1", 60*time.Second, 50*time.Second, false)

	table := c.BuildTable(10, 100*time.Second) // 1000 cpu-s available
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	handled, notHandled, all := table.Rows[0], table.Rows[1], table.Rows[2]

	if handled.NumRequests != 2 || notHandled.NumRequests != 1 || all.NumRequests != 3 {
		t.Fatalf("request counts wrong: %+v", table.Rows)
	}
	if handled.PctOfRequests < 66 || handled.PctOfRequests > 67 {
		t.Fatalf("handled pct = %v", handled.PctOfRequests)
	}
	if handled.MeanQTime != 15*time.Second {
		t.Fatalf("handled QTime = %v", handled.MeanQTime)
	}
	if handled.NormQTime != 15*time.Second {
		t.Fatalf("handled NormQTime = %v", handled.NormQTime)
	}
	if got := handled.Util; got < 0.299 || got > 0.301 {
		t.Fatalf("handled util = %v, want 0.3", got)
	}
	if got := handled.Accuracy; got < 0.799 || got > 0.801 {
		t.Fatalf("handled accuracy = %v, want 0.8", got)
	}
	if notHandled.Accuracy > 0.2 {
		t.Fatalf("not-handled accuracy = %v", notHandled.Accuracy)
	}
	if all.Util < 0.349 || all.Util > 0.351 {
		t.Fatalf("all util = %v, want 0.35", all.Util)
	}
	// The handled class must beat the fallback class on the paper's
	// axes: accuracy and queue time.
	if !(handled.Accuracy > notHandled.Accuracy && handled.MeanQTime < notHandled.MeanQTime) {
		t.Fatal("handled class does not dominate not-handled class")
	}
}

func TestTableStringRendering(t *testing.T) {
	c := NewCollector()
	c.RecordScheduled("a", Epoch, time.Second, true, 0.5)
	c.RecordOutcome("a", time.Second, time.Minute, false)
	out := c.BuildTable(10, time.Minute).String()
	for _, want := range []string{"handled", "not-handled", "all", "QTime", "Accuracy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestOutOfOrderRecording(t *testing.T) {
	c := NewCollector()
	// Outcome can land before the scheduling record (async watchers).
	c.RecordOutcome("x", 5*time.Second, time.Minute, false)
	c.RecordScheduled("x", Epoch, time.Second, true, 1.0)
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.QTime != 5*time.Second || !r.Handled || r.Accuracy != 1.0 {
		t.Fatalf("merged record = %+v", r)
	}
}

func TestFailedJobsCountInQTime(t *testing.T) {
	c := NewCollector()
	c.RecordScheduled("f", Epoch, time.Second, true, 0.5)
	c.RecordOutcome("f", 30*time.Second, 0, true)
	row := c.BuildTable(10, time.Minute).Rows[0]
	if row.MeanQTime != 30*time.Second {
		t.Fatalf("failed job's QTime ignored: %v", row.MeanQTime)
	}
	if row.Util != 0 {
		t.Fatalf("failed job contributed utilization: %v", row.Util)
	}
}

func TestAccuracyMean(t *testing.T) {
	c := NewCollector()
	for i := 1; i <= 4; i++ {
		handled := i%2 == 0
		c.RecordScheduled(fmt.Sprintf("j%d", i), Epoch, time.Duration(i)*time.Second, handled, float64(i)/10)
	}
	yes, no := true, false
	near := func(a, b float64) bool { return a > b-1e-9 && a < b+1e-9 }
	if got := c.AccuracyMean(&yes); !near(got, 0.3) { // jobs 2,4 → (0.2+0.4)/2
		t.Fatalf("handled accuracy mean = %v", got)
	}
	if got := c.AccuracyMean(&no); !near(got, 0.2) { // jobs 1,3
		t.Fatalf("unhandled accuracy mean = %v", got)
	}
	if got := c.AccuracyMean(nil); !near(got, 0.25) {
		t.Fatalf("overall accuracy mean = %v", got)
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	table := c.BuildTable(10, time.Minute)
	for _, r := range table.Rows {
		if r.NumRequests != 0 || r.Util != 0 {
			t.Fatalf("non-zero row from empty collector: %+v", r)
		}
	}
	if c.AccuracyMean(nil) != 0 {
		t.Fatal("accuracy of empty collector")
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("g%d-j%d", g, i)
				c.RecordScheduled(id, Epoch, time.Second, true, 0.5)
				c.RecordOutcome(id, time.Second, time.Minute, false)
			}
		}(g)
	}
	wg.Wait()
	if n := len(c.Records()); n != 1600 {
		t.Fatalf("len = %d", n)
	}
}
