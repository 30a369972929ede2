package emu

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
)

// newLinkPair wires two reliable links back to back through datagram
// queues, each drained by its own goroutine.  The queues copy every
// datagram, as the kernel does; delivering inside the writer's call
// would re-enter the sender's lock through the peer's ack.
func newLinkPair(t *testing.T, fa, fb Fault) (a, b *udpLink) {
	t.Helper()
	// Deep enough for a full window each way plus its acks and
	// duplicates; an overflow drops the datagram, as a full socket
	// buffer would.
	ab := make(chan []byte, 4*sendWindow)
	ba := make(chan []byte, 4*sendWindow)
	a = newUDPLink(queueWriter(ab), fa, nil)
	b = newUDPLink(queueWriter(ba), fb, nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go deliver(ab, b, stop, &wg)
	go deliver(ba, a, stop, &wg)
	t.Cleanup(func() {
		a.Close()
		b.Close()
		close(stop)
		wg.Wait()
	})
	return a, b
}

func queueWriter(q chan<- []byte) func([]byte) error {
	return func(b []byte) error {
		select {
		case q <- append([]byte(nil), b...):
		default:
		}
		return nil
	}
}

func deliver(q <-chan []byte, to *udpLink, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			return
		case b := <-q:
			to.handle(b)
		}
	}
}

// discardLink is a link whose datagrams go nowhere; tests feed its
// handle directly.
func discardLink(t testing.TB) *udpLink {
	l := newUDPLink(func([]byte) error { return nil }, Fault{}, nil)
	t.Cleanup(func() { l.Close() })
	return l
}

// dataSeg builds one data segment in the wire layout.
func dataSeg(seq, ack uint32, fin byte, payload []byte) []byte {
	b := []byte{kindData}
	b = appendU32(b, seq)
	b = appendU32(b, ack)
	b = append(b, fin)
	return append(b, payload...)
}

func ackSeg(ack uint32) []byte { return appendU32([]byte{kindAck}, ack) }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLinkPiggybacksAcks runs a request/response exchange: every frame
// is answered by a frame, so nearly every ack rides on an answer.
func TestLinkPiggybacksAcks(t *testing.T) {
	const n = 1000
	a, b := newLinkPair(t, Fault{}, Fault{})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			f, err := b.Recv(5 * time.Second)
			if err != nil {
				done <- err
				return
			}
			if err := b.Send(&Frame{Type: FrameReport, HasPrev: true, Prev: f.Slot, Pending: f.InjFirst}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		if err := a.Send(&Frame{Type: FrameBegin, HasSlot: true, Slot: int64(i), InjFirst: int64(3 * i)}); err != nil {
			t.Fatal(err)
		}
		f, err := a.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != FrameReport || f.Prev != int64(i) || f.Pending != int64(3*i) {
			t.Fatalf("frame %d: got %+v", i, f)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	if acks := sa.AcksSent + sb.AcksSent; acks*4 >= n {
		t.Errorf("%d standalone acks for %d request/response pairs (a %+v, b %+v)", acks, n, sa, sb)
	}
}

// TestLinkFlushesDeferredAck: a frame nobody answers is still acked —
// by the retransmit tick, or by Close — before the sender's RTO fires.
func TestLinkFlushesDeferredAck(t *testing.T) {
	for _, viaClose := range []bool{false, true} {
		name := "tick"
		if viaClose {
			name = "close"
		}
		t.Run(name, func(t *testing.T) {
			a, b := newLinkPair(t, Fault{}, Fault{})
			if err := a.Send(&Frame{Type: FrameBegin, HasSlot: true, Slot: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Recv(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if viaClose {
				b.Close()
			}
			waitFor(t, "the send queue to drain", func() bool { return a.Stats().SendQueue == 0 })
			sa, sb := a.Stats(), b.Stats()
			if sb.FramesSent != 0 || sb.AcksSent != 1 || sa.AcksRecv != 1 {
				t.Errorf("peer sent %d frames and %d acks (%d received), want 0 and 1", sb.FramesSent, sb.AcksSent, sa.AcksRecv)
			}
			if sa.Retransmits != 0 {
				t.Errorf("the deferred ack let the RTO fire: %d retransmits", sa.Retransmits)
			}
		})
	}
}

// TestLinkCarriesFrameLargerThanWindow sends one frame of more segments
// than the window holds: mid-frame segments are acked at once, so the
// sender's backpressure releases and the frame arrives intact.
func TestLinkCarriesFrameLargerThanWindow(t *testing.T) {
	a, b := newLinkPair(t, Fault{}, Fault{})
	blob := make([]byte, (sendWindow+8)*maxSegPayload+17)
	for i := range blob {
		blob[i] = byte(i * 131)
	}
	sent := make(chan error, 1)
	go func() { sent <- a.Send(&Frame{Type: FrameConfig, Blob: blob}) }()
	f, err := b.Recv(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameConfig || !bytes.Equal(f.Blob, blob) {
		t.Fatalf("large frame arrived damaged: type %s, %d of %d blob bytes", f.Type, len(f.Blob), len(blob))
	}
	if segs := a.Stats().SegsSent; segs <= sendWindow {
		t.Errorf("frame took %d segments, want more than the %d-segment window", segs, sendWindow)
	}
}

// TestLinkLossyDeliversInOrder echoes frames of mixed sizes, some
// spanning several segments, over a pair that drops and duplicates
// datagrams both ways: every frame arrives once, in order, intact.
func TestLinkLossyDeliversInOrder(t *testing.T) {
	const n = 300
	a, b := newLinkPair(t,
		Fault{DropRate: 0.05, DupRate: 0.05, Seed: 1},
		Fault{DropRate: 0.05, DupRate: 0.05, Seed: 2})
	frame := func(i int) *Frame {
		txs := make([]channel.PacketID, (i%7)*50)
		for k := range txs {
			txs[k] = channel.PacketID(i*1000 + k)
		}
		return &Frame{Type: FrameReport, HasSlot: true, Slot: int64(i), Txs: txs}
	}
	same := func(got, want *Frame) bool {
		if len(got.Txs) == 0 && len(want.Txs) == 0 {
			return got.Type == want.Type && got.Slot == want.Slot
		}
		return reflect.DeepEqual(got, want)
	}
	errs := make(chan error, 2)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(frame(i)); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	go func() {
		for i := 0; i < n; i++ {
			f, err := b.Recv(10 * time.Second)
			if err == nil && !same(f, frame(i)) {
				err = errors.New("echo side: frame out of order or damaged")
			}
			if err == nil {
				err = b.Send(f)
			}
			if err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < n; i++ {
		f, err := a.Recv(10 * time.Second)
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if !same(f, frame(i)) {
			t.Fatalf("echo %d out of order or damaged: slot %d, %d txs", i, f.Slot, len(f.Txs))
		}
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.FaultDrops == 0 || sb.FaultDrops == 0 || sa.FaultDups == 0 || sb.FaultDups == 0 {
		t.Errorf("fault plan never fired: a %+v, b %+v", sa, sb)
	}
}

// TestLinkStaleAckFreesNothing: a retransmitted segment carries the ack
// it first went out with, which may be behind what the link has already
// seen; it must free nothing, even across sequence wraparound.
func TestLinkStaleAckFreesNothing(t *testing.T) {
	l := discardLink(t)
	l.mu.Lock()
	l.sendSeq = math.MaxUint32 - 1
	l.mu.Unlock()
	for i := 0; i < 3; i++ { // seqs MaxUint32-1, MaxUint32, 0
		if err := l.Send(&Frame{Type: FrameBegin, HasSlot: true, Slot: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The first segment of the peer's two-segment answer; mid-frame, so
	// acked at once and never deferred.
	answer := []byte{byte(FrameConfig), 9, 0, 0, 0, 'p', 'a'}
	queue := func() int { return l.Stats().SendQueue }

	l.handle(dataSeg(0, math.MaxUint32, 0, answer))
	if q := queue(); q != 2 {
		t.Fatalf("ack of the first segment left %d unacked, want 2", q)
	}
	l.handle(dataSeg(0, math.MaxUint32-1, 0, answer))
	if q := queue(); q != 2 {
		t.Errorf("stale ack in a retransmitted segment left %d unacked, want 2", q)
	}
	l.handle(ackSeg(math.MaxUint32 - 1))
	if q := queue(); q != 2 {
		t.Errorf("stale standalone ack left %d unacked, want 2", q)
	}
	if s := l.Stats(); s.DupSegs != 1 || s.AcksSent != 2 {
		t.Errorf("DupSegs=%d AcksSent=%d, want 1 and 2 (both segments acked at once)", s.DupSegs, s.AcksSent)
	}
	l.handle(ackSeg(1))
	if q := queue(); q != 0 {
		t.Errorf("current ack left %d unacked, want 0", q)
	}
}

// TestLinkSendAllocs: once warm, sending a single-segment frame and
// taking its ack allocates nothing.
func TestLinkSendAllocs(t *testing.T) {
	l := discardLink(t)
	f := &Frame{Type: FrameReport, HasPrev: true, Prev: 12, Pending: 5, HasWake: true, NextWake: 40}
	ack := ackSeg(0)
	var seq uint32
	roundTrip := func() {
		if err := l.Send(f); err != nil {
			t.Fatal(err)
		}
		seq++
		putU32(ack[1:], seq)
		l.handle(ack)
	}
	roundTrip()
	if n := testing.AllocsPerRun(200, roundTrip); n != 0 {
		t.Errorf("Send plus its ack: %v allocations, want 0", n)
	}
	if q := l.Stats().SendQueue; q != 0 {
		t.Errorf("%d segments left unacked", q)
	}
}

// TestRecvAllocs: taking an already-queued frame arms no timer.  The
// link hands over the frame its pump decoded; the pipe decodes it in
// Recv, which is its one allocation.
func TestRecvAllocs(t *testing.T) {
	l := discardLink(t)
	f := &Frame{Type: FrameBegin, HasSlot: true, Slot: 3}
	if n := testing.AllocsPerRun(200, func() {
		l.frames <- f
		if _, err := l.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("link Recv of a queued frame: %v allocations, want 0", n)
	}

	a, b := NewPipe()
	defer a.Close()
	enc := f.Append(nil)
	if n := testing.AllocsPerRun(200, func() {
		a.(*pipe).out <- enc
		if _, err := b.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("pipe Recv of a queued frame: %v allocations, want 1", n)
	}
}

// TestRecvTimerRearms: the one reused timer ends idle waits with
// ErrTimeout and, re-armed after them, lets a longer wait run until its
// frame arrives.
func TestRecvTimerRearms(t *testing.T) {
	l := discardLink(t)
	p, q := NewPipe()
	defer p.Close()
	for _, tc := range []struct {
		name string
		rx   Transport
		put  func()
	}{
		{"link", l, func() { l.frames <- &Frame{Type: FrameDone} }},
		{"pipe", q, func() { _ = p.Send(&Frame{Type: FrameDone}) }},
	} {
		for i := 0; i < 3; i++ {
			if _, err := tc.rx.Recv(time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("%s: idle Recv returned %v, want ErrTimeout", tc.name, err)
			}
		}
		time.AfterFunc(20*time.Millisecond, tc.put)
		if f, err := tc.rx.Recv(10 * time.Second); err != nil || f.Type != FrameDone {
			t.Fatalf("%s: Recv after timeouts returned %v, %v", tc.name, f, err)
		}
	}
}

// lenPrefixed joins datagrams into one fuzz input: each datagram is
// preceded by its length as a little-endian u16.
func lenPrefixed(dgrams ...[]byte) []byte {
	var in []byte
	for _, d := range dgrams {
		in = append(in, byte(len(d)), byte(len(d)>>8))
		in = append(in, d...)
	}
	return in
}

// FuzzSegmentHandle feeds arbitrary datagram runs to a link with
// unacked segments of its own: handle must never panic or block.
func FuzzSegmentHandle(f *testing.F) {
	hello := (&Frame{Type: FrameHello}).Append(nil)
	f.Add(lenPrefixed(dataSeg(0, 1, 1, hello)[:dataHeader-1], dataSeg(0, 0, 1, nil)))
	f.Add(lenPrefixed([]byte{0x01, 0, 0, 0, 0, 1, byte(FrameHello)}))
	f.Add(lenPrefixed(ackSeg(2), ackSeg(0), ackSeg(1)[:ackLen-1], ackSeg(math.MaxUint32)))
	// A valid frame spanning three segments, as a link writes it.
	var multi [][]byte
	w := newUDPLink(func(b []byte) error { multi = append(multi, append([]byte(nil), b...)); return nil }, Fault{}, nil)
	_ = w.Send(&Frame{Type: FrameConfig, Blob: bytes.Repeat([]byte("cfg"), maxSegPayload)})
	w.Close()
	f.Add(lenPrefixed(multi...))
	f.Fuzz(func(t *testing.T, in []byte) {
		l := newUDPLink(func([]byte) error { return nil }, Fault{}, nil)
		defer l.Close()
		for i := 0; i < 2; i++ {
			if err := l.Send(&Frame{Type: FrameBegin, HasSlot: true, Slot: int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for len(in) >= 2 {
			n := min(int(in[0])|int(in[1])<<8, len(in)-2)
			l.handle(in[2 : 2+n])
			in = in[2+n:]
			// A datagram completes at most one frame; taking it keeps the
			// receive queue from filling and blocking handle.
			select {
			case <-l.frames:
			default:
			}
		}
	})
}
