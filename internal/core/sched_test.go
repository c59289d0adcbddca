package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerRunsTasks(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4, Seed: 1})
	defer s.Close()
	s.Register("app", 1)
	var n int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := s.Submit("app", func() {
			atomic.AddInt64(&n, 1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n != 100 {
		t.Fatalf("ran %d tasks, want 100", n)
	}
}

func TestSchedulerRejectsUnknownApp(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Seed: 1})
	defer s.Close()
	if err := s.Submit("ghost", func() {}); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestSchedulerRejectsAfterClose(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Seed: 1})
	s.Register("app", 1)
	s.Close()
	if err := s.Submit("app", func() {}); err == nil {
		t.Fatal("expected error after Close")
	}
}

func TestSchedulerDuplicateRegisterPanics(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Seed: 1})
	defer s.Close()
	s.Register("app", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Register("app", 1)
}

func TestSchedulerCloseDrainsQueue(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, Seed: 1})
	s.Register("app", 1)
	var n int64
	for i := 0; i < 50; i++ {
		s.Submit("app", func() { atomic.AddInt64(&n, 1) })
	}
	s.Close()
	if got := atomic.LoadInt64(&n); got != 50 {
		t.Fatalf("Close ran %d of 50 queued tasks", got)
	}
}

// submitBacklog queues a large open-loop backlog for both apps so the WFQ
// pick genuinely chooses between non-empty queues: heavy tasks for app
// "slow" and light ones for "fast" — the paper's Solr vs Hadoop asymmetry
// (§4.2.3: "a Solr task takes, on average, 30 ms to run on the CPU, while a
// Hadoop task runs only for a few ms"). Task cost is emulated with sleeps
// because the test host has a single CPU (see DESIGN.md).
func submitBacklog(s *Scheduler, n int, slowDur, fastDur time.Duration) {
	for i := 0; i < n; i++ {
		s.Submit("slow", func() { time.Sleep(slowDur) })
		s.Submit("fast", func() { time.Sleep(fastDur) })
	}
}

// Fixed weights starve the app with short tasks: the heavy app wins CPU
// roughly in proportion to its task length (Fig 25).
func TestFixedWFQSkewsCPUTime(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4, Adaptive: false, Seed: 1})
	s.Register("slow", 1)
	s.Register("fast", 1)
	submitBacklog(s, 2000, 10*time.Millisecond, time.Millisecond)
	time.Sleep(400 * time.Millisecond)
	slow, fast := s.CPUTime("slow"), s.CPUTime("fast")
	s.CloseNow()
	if fast == 0 {
		t.Fatal("fast app got no CPU at all")
	}
	if ratio := slow.Seconds() / fast.Seconds(); ratio < 3 {
		t.Fatalf("fixed WFQ should skew CPU to the heavy app: ratio %.2f", ratio)
	}
}

// The adaptive policy equalises CPU time despite the task-length asymmetry
// (Fig 26).
func TestAdaptiveWFQEqualisesCPUTime(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 4, Adaptive: true, Seed: 1})
	s.Register("slow", 1)
	s.Register("fast", 1)
	submitBacklog(s, 2000, 10*time.Millisecond, time.Millisecond)
	time.Sleep(400 * time.Millisecond)
	slow, fast := s.CPUTime("slow"), s.CPUTime("fast")
	s.CloseNow()
	if fast == 0 || slow == 0 {
		t.Fatal("an app got no CPU")
	}
	ratio := slow.Seconds() / fast.Seconds()
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("adaptive WFQ should roughly equalise CPU time: ratio %.2f", ratio)
	}
}

func TestSchedulerSharesBias(t *testing.T) {
	// With equal task costs, a 3:1 share should yield roughly 3:1 CPU.
	s := NewScheduler(SchedulerConfig{Workers: 4, Adaptive: true, Seed: 1})
	s.Register("big", 3)
	s.Register("small", 1)
	for i := 0; i < 2000; i++ {
		s.Submit("big", func() { time.Sleep(2 * time.Millisecond) })
		s.Submit("small", func() { time.Sleep(2 * time.Millisecond) })
	}
	time.Sleep(400 * time.Millisecond)
	ratio := s.CPUTime("big").Seconds() / s.CPUTime("small").Seconds()
	s.CloseNow()
	if ratio < 1.8 || ratio > 5 {
		t.Fatalf("3:1 shares should bias CPU accordingly, got ratio %.2f", ratio)
	}
}

func TestCloseNowDropsQueue(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, Seed: 1})
	s.Register("app", 1)
	var ran int64
	for i := 0; i < 1000; i++ {
		s.Submit("app", func() {
			atomic.AddInt64(&ran, 1)
			time.Sleep(time.Millisecond)
		})
	}
	s.CloseNow()
	if got := atomic.LoadInt64(&ran); got >= 1000 {
		t.Fatalf("CloseNow should drop queued tasks, ran %d", got)
	}
}
