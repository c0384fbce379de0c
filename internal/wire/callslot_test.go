package wire

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"digruber/internal/trace"
	"digruber/internal/vtime"
)

// TestLateReplyNeverReachesTheNextCall times a call out while its reply
// is in flight and makes the next call on the same client — on the same
// per-call slot — against an echo: the next call must get its own reply,
// whichever of the two paths the late one took. Either the read loop
// finds the timed-out call gone from pending and drops the reply, or it
// took the call out of pending first and sends the reply to the slot, in
// which case the timed-out call drains the slot before it lets it go. The
// second path is a race the end-to-end rounds hit only sometimes, so it
// is also staged directly.
func TestLateReplyNeverReachesTheNextCall(t *testing.T) {
	srv, cli := newPair(t, Instant(), nil, vtime.NewReal())
	srv.RegisterCtx("echo", func(_ Ctx, body []byte) ([]byte, error) { return body, nil })
	// "slow" answers "late" after the number of microseconds its body
	// names: at, before or after its caller's 1 ms deadline.
	srv.RegisterCtx("slow", func(_ Ctx, body []byte) ([]byte, error) {
		us, err := strconv.Atoi(string(body))
		if err != nil {
			return nil, err
		}
		time.Sleep(time.Duration(us) * time.Microsecond)
		return []byte("late"), nil
	})

	staged := t.Run("staged", func(t *testing.T) {
		s := cli.takeSlot()
		cli.mu.Lock()
		cli.nextID++
		id := cli.nextID
		cli.pending[id] = s
		// The read loop takes the call out of pending as its reply
		// arrives, and is about to send it ...
		delete(cli.pending, id)
		cli.mu.Unlock()
		sent := make(chan struct{})
		go func() {
			time.Sleep(5 * time.Millisecond) // after the caller has given up
			s.reply <- frame{ID: id, Kind: frameResponse, Body: []byte("late")}
			close(sent)
		}()
		// ... when the call's deadline passes: its slot is released only
		// once the frame is out of it.
		cli.releaseSlot(s, id)
		<-sent
		if len(s.reply) != 0 {
			t.Fatal("a released slot still holds the late reply")
		}
		if again := cli.takeSlot(); again != s {
			t.Fatal("the released slot was not the one handed out next")
		} else {
			cli.slots.put(again)
		}
	})
	if !staged {
		// A late reply left in a slot wedges the read loop on the slot's
		// next reply: the rounds below would only time out.
		t.FailNow()
	}

	timedOut, late := 0, 0
	for round := 0; round < 200; round++ {
		_, err := cli.CallCtx(trace.SpanContext{}, "slow", []byte(strconv.Itoa(round%40*50)), time.Millisecond)
		switch {
		case errors.Is(err, ErrTimeout):
			timedOut++
		case err != nil:
			t.Fatalf("round %d: slow call: %v", round, err)
		}
		if round%2 == 1 {
			time.Sleep(2 * time.Millisecond) // the late reply lands before the next call
			late++
		}
		want := fmt.Sprintf("round-%d", round)
		got, err := cli.CallCtx(trace.SpanContext{}, "echo", []byte(want), 10*time.Second)
		if err != nil || string(got) != want {
			t.Fatalf("round %d: the call after a late reply got %q, %v; want its own %q", round, got, err, want)
		}
	}
	if timedOut == 0 {
		t.Fatal("no slow call timed out: the test proves nothing")
	}
	t.Logf("%d of 200 slow calls timed out; %d next calls waited for the late reply to land first", timedOut, late)
}
