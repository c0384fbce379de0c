package vtime

import (
	"testing"
	"time"
)

// TestManualAlarmDeliversOnlyItsLastArming re-arms one alarm before
// earlier armings fall due: only the last delivers, and the superseded
// ones still move the clock's now as After's waiters would, since they
// are never taken off the clock.
func TestManualAlarmDeliversOnlyItsLastArming(t *testing.T) {
	c := NewManual(epoch)
	a := c.NewAlarm()
	a.Reset(time.Second)
	a.Reset(3 * time.Second)
	seen := make(chan time.Time, 4)
	c.AfterFunc(2*time.Second, func() { seen <- c.Now() })
	c.Advance(2 * time.Second)
	if got := <-seen; !got.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("a waiter behind a superseded arming ran at %v", got)
	}
	select {
	case tick := <-a.C():
		t.Fatalf("a superseded arming delivered %v", tick)
	default:
	}
	c.Advance(time.Second)
	select {
	case tick := <-a.C():
		if !tick.Equal(epoch.Add(3 * time.Second)) {
			t.Fatalf("the last arming delivered %v, want %v", tick, epoch.Add(3*time.Second))
		}
	default:
		t.Fatal("the last arming did not deliver")
	}

	// A tick nobody took is gone once the alarm is armed again.
	a.Reset(time.Second)
	c.Advance(time.Second)
	a.Reset(time.Minute)
	select {
	case tick := <-a.C():
		t.Fatalf("a tick of an earlier arming was delivered after Reset: %v", tick)
	default:
	}
}

// TestTimerAlarmDeliversOnlyItsLastArming is the same for the clocks that
// wait in real time: a re-armed alarm delivers once, at its last
// deadline, and a tick left untaken is not delivered after Reset.
func TestTimerAlarmDeliversOnlyItsLastArming(t *testing.T) {
	for name, c := range map[string]Clock{"real": NewReal(), "scaled": NewScaled(epoch, 10)} {
		t.Run(name, func(t *testing.T) {
			a := c.NewAlarm()
			a.Reset(time.Millisecond)
			a.Reset(time.Hour)
			time.Sleep(20 * time.Millisecond)
			select {
			case tick := <-a.C():
				t.Fatalf("a superseded arming delivered %v", tick)
			default:
			}
			start := time.Now()
			a.Reset(10 * time.Millisecond)
			<-a.C()
			if waited := time.Since(start); waited < a.(*timerAlarm).real(10*time.Millisecond) {
				t.Fatalf("the alarm delivered after %v", waited)
			}
			a.Reset(0)
			time.Sleep(5 * time.Millisecond)
			a.Reset(time.Hour)
			select {
			case tick := <-a.C():
				t.Fatalf("a tick of an earlier arming was delivered after Reset: %v", tick)
			case <-time.After(20 * time.Millisecond):
			}
		})
	}
}
