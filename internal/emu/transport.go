package emu

import (
	"errors"
	"sync"
	"time"
)

// Transport is one station's reliable, ordered frame link, as seen from
// either endpoint.  Send must deliver frames in order (blocking for
// backpressure when the peer lags); Recv returns the next frame,
// waiting at most timeout (0 = forever).  Implementations must be safe
// for one concurrent sender plus one concurrent receiver.
//
// Two implementations ship: the in-proc pipe (NewPipe) backing swarm
// mode, and the reliable-UDP link (DialUDP / ListenUDP) with tru-style
// send/receive queues, retransmit-on-timeout, and live per-connection
// statistics.
type Transport interface {
	// Send encodes and delivers one frame, blocking while the send
	// queue is full (backpressure).  It fails once the link is closed.
	// Send does not keep f after it returns, so callers may reuse it.
	Send(f *Frame) error

	// Recv returns the next frame in order.  timeout 0 blocks forever;
	// otherwise ErrTimeout is returned when nothing arrives in time.
	Recv(timeout time.Duration) (*Frame, error)

	// Stats snapshots the link's live counters.
	Stats() ConnStats

	// Close tears the link down; blocked Send/Recv calls fail promptly.
	Close() error
}

// ErrTimeout reports that Recv waited out its deadline — the per-slot
// barrier's loud failure mode (the engine never hangs on a dead
// station).
var ErrTimeout = errors.New("emu: receive timeout")

// ErrClosed reports use of a closed transport.
var ErrClosed = errors.New("emu: transport closed")

// ConnStats are one link's live counters, in the spirit of tru's
// per-channel statistics: cumulative frame/byte/segment totals (callers
// derive rates from deltas), retransmit and drop counters, current
// queue depths, and a smoothed round-trip time.
type ConnStats struct {
	// FramesSent/FramesRecv count whole protocol frames.
	FramesSent, FramesRecv uint64
	// BytesSent/BytesRecv count encoded frame payload bytes.
	BytesSent, BytesRecv uint64
	// SegsSent/SegsRecv count data segments (UDP only; the pipe moves
	// whole frames).  Retransmissions are counted in Retransmits.
	SegsSent, SegsRecv uint64
	// AcksSent/AcksRecv count standalone ack datagrams (UDP only); acks
	// riding on data segments are not counted.
	AcksSent, AcksRecv uint64
	// Retransmits counts segments re-sent on ack timeout.
	Retransmits uint64
	// DupSegs counts received segments discarded as duplicate or
	// out-of-order (go-back-N keeps only the in-order prefix).
	DupSegs uint64
	// FaultDrops/FaultDups count datagrams the injected fault plan
	// dropped or duplicated (testing lossy regimes; zero on clean links).
	FaultDrops, FaultDups uint64
	// SendQueue/RecvQueue are current depths: unacked outbound segments
	// (or queued frames for the pipe) and received-but-unconsumed frames.
	SendQueue, RecvQueue int
	// RTTMillis is the smoothed round-trip time EWMA in milliseconds
	// (0 until the first sample; always 0 on the pipe).
	RTTMillis float64
}

// pipeQueueDepth is the pipe's frame buffer: deep enough that the
// coordinator can broadcast to a swarm without rendezvous, shallow
// enough that a stuck station exerts backpressure.
const pipeQueueDepth = 64

// pipe is the in-proc Transport: two buffered channels of encoded
// frames.  Frames still round-trip through the wire codec so swarm mode
// exercises exactly the bytes UDP mode ships.
type pipe struct {
	out, in chan []byte
	closed  chan struct{}
	once    *sync.Once
	wait    recvTimer // Recv's deadline; the receiver's alone

	mu    sync.Mutex
	stats ConnStats
}

// NewPipe returns the two endpoints of an in-proc link.
func NewPipe() (a, b Transport) {
	ab := make(chan []byte, pipeQueueDepth)
	ba := make(chan []byte, pipeQueueDepth)
	closed := make(chan struct{})
	once := &sync.Once{}
	return &pipe{out: ab, in: ba, closed: closed, once: once},
		&pipe{out: ba, in: ab, closed: closed, once: once}
}

func (p *pipe) Send(f *Frame) error {
	buf := f.Append(nil)
	select {
	case <-p.closed:
		return ErrClosed
	default:
	}
	select {
	case p.out <- buf:
		p.mu.Lock()
		p.stats.FramesSent++
		p.stats.BytesSent += uint64(len(buf))
		p.mu.Unlock()
		return nil
	case <-p.closed:
		return ErrClosed
	}
}

func (p *pipe) Recv(timeout time.Duration) (*Frame, error) {
	select {
	case buf := <-p.in:
		return p.decode(buf)
	default:
	}
	expired := p.wait.arm(timeout)
	defer p.wait.stop()
	select {
	case buf := <-p.in:
		return p.decode(buf)
	case <-expired:
		return nil, ErrTimeout
	case <-p.closed:
		// Drain anything already queued before reporting closure, so a
		// final Done is never lost to a racing Close.
		select {
		case buf := <-p.in:
			return p.decode(buf)
		default:
			return nil, ErrClosed
		}
	}
}

// decode turns one received encoding into a frame and counts it.
func (p *pipe) decode(buf []byte) (*Frame, error) {
	f := new(Frame)
	if err := f.Decode(buf); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.stats.FramesRecv++
	p.stats.BytesRecv += uint64(len(buf))
	p.mu.Unlock()
	return f, nil
}

func (p *pipe) Stats() ConnStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.SendQueue = len(p.out)
	s.RecvQueue = len(p.in)
	return s
}

func (p *pipe) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

// recvTimer is a receiver's reusable Recv deadline: one timer per
// endpoint, re-armed for each wait instead of made anew.  Since Go 1.23
// a Reset or Stop discards any expiry not yet received, so a stale
// fire never ends a later wait early.
type recvTimer struct{ t *time.Timer }

// arm starts a wait of d and returns the channel that fires when it
// ends, or nil for d ≤ 0 (wait forever).  Pair it with stop.
func (r *recvTimer) arm(d time.Duration) <-chan time.Time {
	if d <= 0 {
		return nil
	}
	if r.t == nil {
		r.t = time.NewTimer(d)
	} else {
		r.t.Reset(d)
	}
	return r.t.C
}

// stop ends the current wait.
func (r *recvTimer) stop() {
	if r.t != nil {
		r.t.Stop()
	}
}
