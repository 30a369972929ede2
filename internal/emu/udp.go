package emu

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"repro/internal/rng"
)

// Wire segment layout (one UDP datagram each):
//
//	data: [kindData][seq u32 LE][ack u32 LE][fin u8][payload ≤ maxSegPayload]
//	ack:  [kindAck][cumulative ack u32 LE]
//
// Frames are split into ≤ maxSegPayload data segments (fin marks the
// last) and reassembled in order on the far side, so frames larger than
// a datagram — a dense slot's transmitter list — ship transparently.
// Reliability is go-back-N: the receiver accepts only the in-order
// prefix and acks cumulatively; the sender keeps a bounded window of
// unacked segments (Send blocks when it fills — the send-queue
// backpressure) and retransmits the window when the oldest segment
// outlives the RTO, which adapts to a smoothed RTT (Karn's rule:
// retransmitted segments never feed the estimator).
//
// Every data segment carries its sender's cumulative ack, applied
// exactly like a standalone ack.  The slot barrier answers every frame
// but Done with a frame, so the ack for a segment that completes a
// frame is deferred to ride on the next data segment out; if none goes
// out first, the retransmit tick sends it standalone within retransTick
// (under minRTO, so a deferred ack never trips the peer's RTO), and
// Close sends it too.  Every other segment — mid-frame, duplicate or
// out of order — is acked at once, so multi-segment frames and
// go-back-N recovery never wait for the tick.  Deferral puts the peer's
// turnaround into the RTT samples its answers ack.
const (
	// kindData marks a data segment.  The layout without the ack field
	// used kind 0x01, so a segment from a build that sends it is dropped
	// as an unknown kind instead of misparsed.
	kindData = 0x03
	kindAck  = 0x02

	dataHeader    = 10
	ackLen        = 5
	maxSegPayload = 1024
	sendWindow    = 64

	initialRTO = 50 * time.Millisecond
	minRTO     = 10 * time.Millisecond
	maxRTO     = 500 * time.Millisecond
	// rttAlpha is the EWMA weight of a new RTT sample.
	rttAlpha = 0.125
	// retransTick is how often the retransmit loop inspects the window
	// and flushes a deferred ack.
	retransTick = 5 * time.Millisecond
)

// Fault is a deterministic datagram fault plan for lossy-transport
// regimes: every outgoing datagram (data and ack alike) is dropped with
// probability DropRate and duplicated with probability DupRate, driven
// by a private stream seeded from Seed.  The zero value is a clean
// link.
type Fault struct {
	DropRate float64
	DupRate  float64
	Seed     uint64
}

func (f Fault) active() bool { return f.DropRate > 0 || f.DupRate > 0 }

// wseg is one unacked outbound segment.
type wseg struct {
	seq       uint32
	pkt       []byte // full datagram, ready to retransmit
	firstSent time.Time
	retrans   bool
}

// udpLink is one reliable frame link over datagrams.  The raw write
// function and the pump feeding handle() are supplied by the endpoint
// (dialer or listener), so the protocol logic is transport-socket
// agnostic — and directly testable against an in-memory lossy pair.
// writeRaw must not keep the datagram it is handed: the link reuses
// every datagram buffer.
type udpLink struct {
	writeRaw func([]byte) error
	onClose  func()

	mu      sync.Mutex
	space   *sync.Cond // window space freed, or closed
	closed  bool
	sendSeq uint32
	// window holds the unacked segments, oldest first, compacted in
	// place.  free recycles acked segments' buffers; a buffer is made
	// only when free is empty, so at most sendWindow ever exist.
	window  []wseg
	free    [][]byte
	enc     []byte  // the frame Send is segmenting
	srtt    float64 // milliseconds; 0 until first sample
	rto     time.Duration
	backoff int

	recvNext uint32
	partial  []byte
	// ackOwed is set when a completed frame's ack is deferred, and
	// cleared by any datagram that carries recvNext.
	ackOwed bool
	ackPkt  [ackLen]byte

	frames chan *Frame
	wait   recvTimer // Recv's deadline; the receiver's alone
	stats  ConnStats

	frng  *rng.Rand
	fault Fault

	closeCh chan struct{}
}

func newUDPLink(write func([]byte) error, fault Fault, onClose func()) *udpLink {
	l := &udpLink{
		writeRaw: write,
		onClose:  onClose,
		window:   make([]wseg, 0, sendWindow),
		free:     make([][]byte, 0, sendWindow),
		rto:      initialRTO,
		frames:   make(chan *Frame, 256),
		fault:    fault,
		closeCh:  make(chan struct{}),
	}
	l.ackPkt[0] = kindAck
	l.space = sync.NewCond(&l.mu)
	if fault.active() {
		l.frng = rng.New(fault.Seed)
	}
	go l.retransmitLoop()
	return l
}

// transmit writes one datagram through the fault plan.  Callers hold mu.
func (l *udpLink) transmit(pkt []byte) {
	if l.frng != nil {
		if l.fault.DropRate > 0 && l.frng.Float64() < l.fault.DropRate {
			l.stats.FaultDrops++
			return
		}
		if l.fault.DupRate > 0 && l.frng.Float64() < l.fault.DupRate {
			l.stats.FaultDups++
			_ = l.writeRaw(pkt)
		}
	}
	_ = l.writeRaw(pkt)
}

// ackNowLocked sends the cumulative ack as a standalone datagram,
// settling any deferred one.  Callers hold mu.
func (l *udpLink) ackNowLocked() {
	l.ackOwed = false
	putU32(l.ackPkt[1:], l.recvNext)
	l.stats.AcksSent++
	l.transmit(l.ackPkt[:])
}

// Send splits the frame into data segments and queues each into the
// go-back-N window, blocking for space — the tru-style send-queue
// backpressure — and transmitting immediately.  Each segment carries
// the current cumulative ack.
func (l *udpLink) Send(f *Frame) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.enc = f.Append(l.enc[:0])
	buf := l.enc
	l.stats.FramesSent++
	l.stats.BytesSent += uint64(len(buf))
	for off := 0; ; {
		end := off + maxSegPayload
		fin := byte(0)
		if end >= len(buf) {
			end = len(buf)
			fin = 1
		}
		for len(l.window) >= sendWindow && !l.closed {
			l.space.Wait()
		}
		if l.closed {
			return ErrClosed
		}
		var pkt []byte
		if n := len(l.free); n > 0 {
			pkt = l.free[n-1]
			l.free = l.free[:n-1]
		} else {
			pkt = make([]byte, 0, dataHeader+maxSegPayload)
		}
		pkt = append(pkt, kindData)
		pkt = appendU32(pkt, l.sendSeq)
		pkt = appendU32(pkt, l.recvNext)
		pkt = append(pkt, fin)
		pkt = append(pkt, buf[off:end]...)
		l.ackOwed = false
		l.window = append(l.window, wseg{seq: l.sendSeq, pkt: pkt, firstSent: time.Now()})
		l.sendSeq++
		l.stats.SegsSent++
		l.transmit(pkt)
		if fin == 1 {
			return nil
		}
		off = end
	}
}

// handle processes one inbound datagram (called from the endpoint's
// socket pump).
func (l *udpLink) handle(pkt []byte) {
	if len(pkt) < 1 {
		return
	}
	var done *Frame
	l.mu.Lock()
	switch pkt[0] {
	case kindData:
		if len(pkt) < dataHeader {
			break
		}
		seq := leU32(pkt[1:5])
		l.ackLocked(leU32(pkt[5:9]))
		fin := pkt[9]
		l.stats.SegsRecv++
		if seq != l.recvNext {
			// Duplicate or out-of-order: go-back-N keeps only the in-order
			// prefix; the cumulative re-ack tells the sender where to
			// resume.
			l.stats.DupSegs++
			l.ackNowLocked()
			break
		}
		l.recvNext++
		l.partial = append(l.partial, pkt[dataHeader:]...)
		if fin != 1 {
			l.ackNowLocked()
			break
		}
		f := new(Frame)
		if err := f.Decode(l.partial); err == nil {
			l.stats.FramesRecv++
			l.stats.BytesRecv += uint64(len(l.partial))
			done = f
		}
		l.partial = l.partial[:0]
		l.ackOwed = true
	case kindAck:
		if len(pkt) < ackLen {
			break
		}
		l.stats.AcksRecv++
		l.ackLocked(leU32(pkt[1:5]))
	}
	closed := l.closed
	l.mu.Unlock()
	if done == nil || closed {
		return
	}
	select {
	case l.frames <- done:
	case <-l.closeCh:
	}
}

// ackLocked advances the send window to the cumulative ack.  An ack at
// or behind the window's base frees nothing.
func (l *udpLink) ackLocked(ack uint32) {
	n := 0
	for ; n < len(l.window) && int32(l.window[n].seq-ack) < 0; n++ {
		seg := &l.window[n]
		if !seg.retrans {
			// Karn's rule: only never-retransmitted segments sample RTT.
			sample := float64(time.Since(seg.firstSent)) / float64(time.Millisecond)
			if l.srtt == 0 {
				l.srtt = sample
			} else {
				l.srtt = (1-rttAlpha)*l.srtt + rttAlpha*sample
			}
			l.stats.RTTMillis = l.srtt
		}
		l.free = append(l.free, seg.pkt[:0])
	}
	if n == 0 {
		return
	}
	kept := copy(l.window, l.window[n:])
	clear(l.window[kept:])
	l.window = l.window[:kept]
	l.backoff = 0
	l.rto = clampRTO(time.Duration(2 * l.srtt * float64(time.Millisecond)))
	l.space.Broadcast()
}

func clampRTO(d time.Duration) time.Duration {
	if d < minRTO {
		return minRTO
	}
	if d > maxRTO {
		return maxRTO
	}
	return d
}

// retransmitLoop watches the window and, when its oldest segment
// outlives the RTO, resends every unacked segment (go-back-N) with
// exponential RTO backoff until acks resume.  It also sends any ack
// still deferred since the last tick.
func (l *udpLink) retransmitLoop() {
	ticker := time.NewTicker(retransTick)
	defer ticker.Stop()
	for {
		select {
		case <-l.closeCh:
			return
		case <-ticker.C:
		}
		l.mu.Lock()
		if len(l.window) > 0 {
			rto := l.rto << l.backoff
			if rto > maxRTO {
				rto = maxRTO
			}
			if time.Since(l.window[0].firstSent) > rto {
				for i := range l.window {
					l.window[i].retrans = true
					l.stats.Retransmits++
					l.transmit(l.window[i].pkt)
				}
				if l.backoff < 6 {
					l.backoff++
				}
				// Restart the clock so the next round waits a full
				// backed-off RTO from this retransmission.
				l.window[0].firstSent = time.Now()
			}
		}
		if l.ackOwed {
			l.ackNowLocked()
		}
		l.mu.Unlock()
	}
}

func (l *udpLink) Recv(timeout time.Duration) (*Frame, error) {
	select {
	case f := <-l.frames:
		return f, nil
	default:
	}
	expired := l.wait.arm(timeout)
	defer l.wait.stop()
	select {
	case f := <-l.frames:
		return f, nil
	case <-expired:
		return nil, ErrTimeout
	case <-l.closeCh:
		select {
		case f := <-l.frames:
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (l *udpLink) Stats() ConnStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	s.SendQueue = len(l.window)
	s.RecvQueue = len(l.frames)
	return s
}

// Close tears the link down, first sending any deferred ack so the
// peer's last frame does not wait out an RTO.
func (l *udpLink) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.ackOwed {
		l.ackNowLocked()
	}
	l.closed = true
	l.space.Broadcast()
	close(l.closeCh)
	l.mu.Unlock()
	if l.onClose != nil {
		l.onClose()
	}
	return nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// DialUDP connects a station to a coordinator's UDP listener and
// returns the reliable frame link over it.  Both ends must run the same
// build: the segment layout is not negotiated.
func DialUDP(addr string, fault Fault) (Transport, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("emu: dial %s: %w", addr, err)
	}
	l := newUDPLink(
		func(b []byte) error { _, err := conn.Write(b); return err },
		fault,
		func() { conn.Close() },
	)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return
			}
			l.handle(buf[:n])
		}
	}()
	return l, nil
}

// Listener is the coordinator's UDP endpoint: one socket, one reliable
// link per station address, links surfaced in Hello-arrival order via
// Accept.
type Listener struct {
	conn  *net.UDPConn
	fault Fault

	mu     sync.Mutex
	links  map[netip.AddrPort]*udpLink
	nlinks uint64
	closed bool

	accept  chan Transport
	closeCh chan struct{}
}

// ListenUDP binds the coordinator's socket.  addr is host:port
// (port 0 picks a free port; see Addr).
func ListenUDP(addr string, fault Fault) (*Listener, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("emu: listen %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("emu: listen %s: %w", addr, err)
	}
	ln := &Listener{
		conn:    conn,
		fault:   fault,
		links:   make(map[netip.AddrPort]*udpLink),
		accept:  make(chan Transport, 64),
		closeCh: make(chan struct{}),
	}
	go ln.pump()
	return ln, nil
}

// Addr returns the bound address (useful with port 0).
func (ln *Listener) Addr() string { return ln.conn.LocalAddr().String() }

func (ln *Listener) pump() {
	buf := make([]byte, 64<<10)
	for {
		n, peer, err := ln.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		ln.mu.Lock()
		l, ok := ln.links[peer]
		if !ok && !ln.closed {
			fault := ln.fault
			// Decorrelate each link's fault stream; a shared stream
			// would make one link's traffic perturb another's losses.
			fault.Seed = ln.fault.Seed ^ (0x9e3779b97f4a7c15 * (ln.nlinks + 1))
			ln.nlinks++
			l = newUDPLink(
				func(b []byte) error { _, err := ln.conn.WriteToUDPAddrPort(b, peer); return err },
				fault,
				nil,
			)
			ln.links[peer] = l
			select {
			case ln.accept <- l:
			default:
				// Accept backlog full: refuse the link rather than block
				// the pump.
				delete(ln.links, peer)
				l.Close()
				l = nil
			}
		}
		ln.mu.Unlock()
		if l != nil {
			l.handle(buf[:n])
		}
	}
}

// Accept returns the next station link (created on its first datagram
// — in practice the Hello retransmitted until acked).
func (ln *Listener) Accept(timeout time.Duration) (Transport, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case l := <-ln.accept:
		return l, nil
	case <-timer:
		return nil, ErrTimeout
	case <-ln.closeCh:
		return nil, ErrClosed
	}
}

// Close tears down the socket and every link.
func (ln *Listener) Close() error {
	ln.mu.Lock()
	if ln.closed {
		ln.mu.Unlock()
		return nil
	}
	ln.closed = true
	links := make([]*udpLink, 0, len(ln.links))
	for _, l := range ln.links {
		links = append(links, l)
	}
	ln.mu.Unlock()
	close(ln.closeCh)
	for _, l := range links {
		l.Close()
	}
	return ln.conn.Close()
}
