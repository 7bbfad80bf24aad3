package kvrepl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/repllog"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// stallBackup is how long a ReplStallBackup fault delays one apply —
// long enough to open replication lag, short enough for chaos runs.
const stallBackup = 2 * time.Millisecond

// snapshotChunk is the payload size of one ReplSnapshotChunk message.
const snapshotChunk = 64 << 10

// --- the replication stream: one framed connection, both directions ---

// stream is one replication connection: kvnet CRC32C frames carrying
// wire.ReplMessage envelopes, every read and write bounded by the
// owning replica's StreamTimeout. The primary's catch-up loop, the
// migration transfer and the receiving replica all speak through it;
// each keeps only its own policy (quorum accounting, cutover, apply).
type stream struct {
	r    *Replica
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// migration is set by a ReplMigrate handshake: only a migration
	// sender's messages are subject to the ReplMigrateStall fault.
	migration bool
}

func (r *Replica) newStream(conn net.Conn) *stream {
	return &stream{r: r, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
}

// dialStream opens an outbound replication stream to a peer's
// replication listener.
func (r *Replica) dialStream(addr string) (*stream, error) {
	conn, err := net.DialTimeout("tcp", addr, r.opts.StreamTimeout)
	if err != nil {
		return nil, err
	}
	return r.newStream(conn), nil
}

func (s *stream) close() { _ = s.conn.Close() } // the stream is done either way

func (s *stream) send(m wire.ReplMessage) error {
	if s.migration && s.r.faults.Should(fault.ReplMigrateStall) {
		time.Sleep(migrateStall)
	}
	pkt, err := wire.AppendReplMessage(nil, m)
	if err != nil {
		return err
	}
	if err := s.conn.SetWriteDeadline(time.Now().Add(s.r.opts.StreamTimeout)); err != nil {
		return err
	}
	if err := kvnet.WriteFrame(s.bw, pkt); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *stream) recv() (wire.ReplMessage, error) {
	if err := s.conn.SetReadDeadline(time.Now().Add(s.r.opts.StreamTimeout)); err != nil {
		return wire.ReplMessage{}, err
	}
	pkt, err := kvnet.ReadFrame(s.br)
	if err != nil {
		return wire.ReplMessage{}, err
	}
	return wire.DecodeReplMessage(pkt)
}

// call sends one message and returns the peer's reply.
func (s *stream) call(m wire.ReplMessage) (wire.ReplMessage, error) {
	if err := s.send(m); err != nil {
		return wire.ReplMessage{}, err
	}
	return s.recv()
}

// handshake opens the stream with kind (ReplHello for a backup,
// ReplMigrate for a migration destination) at epoch, announcing the
// sender's applied frontier and client address. The reply carries the
// receiver's applied frontier, or a fencing rejection.
func (s *stream) handshake(kind wire.ReplKind, epoch uint64) (wire.ReplMessage, error) {
	s.migration = kind == wire.ReplMigrate
	return s.call(wire.ReplMessage{
		Kind:    kind,
		Epoch:   epoch,
		Seq:     s.r.LastApplied(),
		Payload: []byte(s.r.clientAddr),
	})
}

// ship sends one log entry and returns the receiver's reply.
func (s *stream) ship(epoch uint64, e repllog.Entry) (wire.ReplMessage, error) {
	return s.call(wire.ReplMessage{Kind: wire.ReplAppend, Epoch: epoch, Seq: e.Seq, Payload: e.Packet})
}

// sendSnapshot streams a dump consistent as of seq in snapshotChunk
// pieces and returns the receiver's reply to the final ReplSnapshotEnd.
// An ack of seq means the receiver installed it; replay resumes at
// seq+1.
func (s *stream) sendSnapshot(epoch, seq uint64, data []byte) (wire.ReplMessage, error) {
	if err := s.send(wire.ReplMessage{Kind: wire.ReplSnapshotBegin, Epoch: epoch, Seq: seq}); err != nil {
		return wire.ReplMessage{}, err
	}
	for off := 0; off < len(data); off += snapshotChunk {
		end := min(off+snapshotChunk, len(data))
		if err := s.send(wire.ReplMessage{
			Kind: wire.ReplSnapshotChunk, Epoch: epoch, Seq: seq, Payload: data[off:end],
		}); err != nil {
			return wire.ReplMessage{}, err
		}
	}
	ack, err := s.call(wire.ReplMessage{Kind: wire.ReplSnapshotEnd, Epoch: epoch, Seq: seq})
	if err == nil && ack.Kind == wire.ReplAck && ack.Seq == seq {
		s.r.counters.Add("repl.snapshots_sent", 1)
		s.r.counters.Add("repl.catchup_bytes", uint64(len(data)))
	}
	return ack, err
}

// reject tells the peer why the stream is about to close.
func (s *stream) reject(epoch uint64, reason string) {
	_ = s.send(wire.ReplMessage{ //lint:allow statuserr -- best-effort reject; the stream is closing and the peer re-syncs
		Kind: wire.ReplReject, Epoch: epoch, Payload: []byte(reason),
	})
}

// snapshot dumps the store consistent as of the applied frontier, which
// it returns. With pin set, log truncation is fenced just past that
// frontier under the same lock, so the tail the receiver needs next
// cannot be evicted while it installs.
func (r *Replica) snapshot(pin bool) ([]byte, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var buf bytes.Buffer
	if _, err := r.store.Dump(&buf); err != nil { //lint:allow lockorder -- consistent snapshot requires freezing the store; the lease heartbeat rides an atomic, not mu
		return nil, 0, err
	}
	if pin {
		r.log.Pin(r.lastApplied + 1)
	}
	return buf.Bytes(), r.lastApplied, nil
}

// --- primary side: one shipping loop per backup ---

// peerSync is the primary's replication stream to one backup: dial,
// handshake, then a ping-pong of Append/Ack (replay) with snapshot
// catch-up whenever the backup has fallen out of the log window. The
// loop belongs to one epoch; promotions and demotions stop it and start
// fresh loops.
type peerSync struct {
	r      *Replica
	peerID int
	addr   string
	epoch  uint64

	stop chan struct{}
	wake chan struct{} // buffered 1: "the log grew"

	mu   sync.Mutex
	conn net.Conn
	done bool
}

func newPeerSync(r *Replica, peerID int, addr string, epoch uint64) *peerSync {
	return &peerSync{
		r:      r,
		peerID: peerID,
		addr:   addr,
		epoch:  epoch,
		stop:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
	}
}

// notify nudges an idle loop that new log entries are ready.
func (p *peerSync) notify() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// stopPeer ends the loop and unblocks any in-flight network call.
func (p *peerSync) stopPeer() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	p.done = true
	close(p.stop)
	if p.conn != nil {
		_ = p.conn.Close() // unblocks reads; the loop is exiting anyway
	}
}

func (p *peerSync) stopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

func (p *peerSync) setConn(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return false
	}
	p.conn = c
	return true
}

// run redials the backup forever (with jittered backoff) until stopped.
func (p *peerSync) run() {
	defer p.r.wg.Done()
	bo := kvnet.NewBackoff(2*time.Millisecond, 250*time.Millisecond,
		p.r.opts.Seed^int64(p.peerID+1))
	attempt := 0
	for {
		if p.stopped() {
			return
		}
		progressed := p.syncOnce()
		if p.stopped() {
			return
		}
		if progressed {
			attempt = 0
		}
		attempt++
		bo.Sleep(attempt)
	}
}

// syncOnce runs one connection's lifetime; it reports whether any
// message round-tripped (to reset the redial backoff).
func (p *peerSync) syncOnce() (progressed bool) {
	s, err := p.r.dialStream(p.addr)
	if err != nil {
		return false
	}
	defer s.close()
	if !p.setConn(s.conn) {
		return false
	}

	// Handshake: announce our epoch and client address; learn the
	// backup's applied frontier.
	m, err := s.handshake(wire.ReplHello, p.epoch)
	if err != nil || p.checkReply(m) != nil || m.Kind != wire.ReplHello {
		return false
	}
	sent := m.Seq
	if sent > p.r.LastApplied() {
		// A backup ahead of its primary means fencing failed upstream;
		// do not ship over it.
		return true
	}

	for {
		if p.stopped() {
			return true
		}
		entries, err := p.r.log.Since(sent)
		if errors.Is(err, repllog.ErrTruncated) {
			// The backup's lag outran the log window: fall back to a
			// snapshot install instead of stalling on the missing tail.
			p.r.counters.Add("repl.snapshot_fallbacks", 1)
			snapSeq, serr := p.sendSnapshot(s)
			if serr != nil {
				return true
			}
			sent = snapSeq
			continue
		}
		if err != nil {
			return true
		}
		if len(entries) == 0 {
			if !p.idle(s, sent) {
				return true
			}
			continue
		}
		for _, e := range entries {
			if p.stopped() {
				return true
			}
			if p.r.faults.Should(fault.ReplDropEntry) {
				// Skip the entry but advance the cursor: the next Append
				// (or idle heartbeat) presents a gap, the backup closes
				// the stream, and the redial resyncs from its true
				// frontier — transient loss, recovered, never acked over.
				p.r.counters.Add("repl.entries_dropped", 1)
				sent = e.Seq
				continue
			}
			// A sampled trace context stamped onto the entry's packet by
			// the primary's write path turns this ship+ack round-trip into
			// a span of the originating write's trace — one per backup, so
			// an assembled tree shows the quorum ack fan-out.
			var span *telemetry.Span
			if tc, ok := wire.PacketTraceContext(e.Packet); ok && tc.Sampled {
				span = p.r.tel.Tracer().StartTrace(tc.TraceID, tc.Parent)
				span.SetOp("REPL_SHIP", 1)
			}
			ack, err := s.ship(p.epoch, e)
			if err == nil && p.handleAck(ack) != nil {
				err = errors.New("kvrepl: ack rejected")
			}
			span.SetErr(err)
			p.r.tel.Tracer().Publish(span)
			if err != nil {
				return true
			}
			sent = e.Seq
			p.r.counters.Add("repl.entries_shipped", 1)
		}
	}
}

// idle keeps a quiet stream warm: wait for new entries, a stop, or a
// heartbeat tick (which doubles as the gap detector when the last
// entries before the pause were fault-dropped). Returns false to tear
// the connection down.
func (p *peerSync) idle(s *stream, sent uint64) bool {
	t := time.NewTimer(p.r.opts.HeartbeatEvery)
	defer t.Stop()
	select {
	case <-p.stop:
		return false
	case <-p.wake:
		return true
	case <-t.C:
	}
	// Heartbeat carries the stream cursor, not the primary's frontier:
	// entries appended after Since returned empty will be shipped next
	// iteration and must not read as a gap.
	ack, err := s.call(wire.ReplMessage{Kind: wire.ReplHeartbeat, Epoch: p.epoch, Seq: sent})
	return err == nil && p.handleAck(ack) == nil
}

// sendSnapshot transfers a consistent dump so a backup beyond the log
// window can rejoin; replay resumes from the returned sequence.
func (p *peerSync) sendSnapshot(s *stream) (uint64, error) {
	data, snapSeq, err := p.r.snapshot(false)
	if err != nil {
		return 0, err
	}
	ack, err := s.sendSnapshot(p.epoch, snapSeq, data)
	if err != nil {
		return 0, err
	}
	if err := p.handleAck(ack); err != nil {
		return 0, err
	}
	return snapSeq, nil
}

// handleAck folds the backup's reply into quorum state; a rejection
// with a higher epoch means we have been deposed.
func (p *peerSync) handleAck(m wire.ReplMessage) error {
	if err := p.checkReply(m); err != nil {
		return err
	}
	if m.Kind != wire.ReplAck {
		return fmt.Errorf("kvrepl: unexpected %s from peer %d", m.Kind, p.peerID)
	}
	p.r.recordAck(p.epoch, p.peerID, m.Seq)
	return nil
}

// checkReply handles fencing rejections common to every reply.
func (p *peerSync) checkReply(m wire.ReplMessage) error {
	if m.Kind != wire.ReplReject {
		return nil
	}
	if m.Epoch > p.epoch {
		p.r.maybeDemote(m.Epoch, "")
	}
	return fmt.Errorf("kvrepl: peer %d rejected stream: %s", p.peerID, m.Payload)
}

// --- backup side: accept the primary's stream and apply it ---

// acceptRepl owns the replication listener for the replica's lifetime.
func (r *Replica) acceptRepl() {
	defer r.wg.Done()
	for {
		conn, err := r.replLn.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			_ = conn.Close() // dying; refuse the stream
			continue
		}
		r.conns[conn] = true
		r.mu.Unlock()
		r.wg.Add(1)
		go r.handleReplConn(conn)
	}
}

// handleReplConn serves one inbound replication stream. The handshake
// enforces epoch fencing (this is also how a deposed primary learns of
// its demotion: the new primary's higher-epoch Hello arrives here); the
// message loop applies entries in strict sequence, acks the applied
// frontier, and closes the stream on any gap so the primary resyncs.
func (r *Replica) handleReplConn(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		_ = conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
	}()
	s := r.newStream(conn)

	hello, err := s.recv()
	if err != nil || (hello.Kind != wire.ReplHello && hello.Kind != wire.ReplMigrate) {
		return
	}
	// A ReplMigrate hello opens a live shard-migration transfer: the
	// sender is the source group's primary, not our own, and the stream
	// may end with a ReplInstall committing the shard to us.
	isMigration := hello.Kind == wire.ReplMigrate
	last, herr := r.admitStream(hello)
	if herr != nil {
		r.counters.Add("repl.epoch_rejects", 1)
		s.reject(r.Epoch(), herr.Error())
		return
	}
	if err := s.send(wire.ReplMessage{Kind: wire.ReplHello, Epoch: hello.Epoch, Seq: last}); err != nil {
		return
	}

	var snapBuf *bytes.Buffer
	var snapSeq uint64
	for {
		m, err := s.recv()
		if err != nil {
			return
		}
		if isMigration && r.faults.Should(fault.ReplDestCrash) {
			// Simulated crash-restart of the receiving replica: the
			// stream dies cold mid-apply and the migrator must resume
			// from whatever frontier survived.
			return
		}
		if cur := r.Epoch(); m.Epoch < cur {
			// A newer primary contacted us mid-stream; fence the old one.
			r.counters.Add("repl.epoch_rejects", 1)
			s.reject(cur, "stale epoch")
			return
		}
		switch m.Kind {
		case wire.ReplAppend:
			if r.faults.Should(fault.ReplStallBackup) {
				time.Sleep(stallBackup)
			}
			ackSeq, gap := r.applyEntry(m)
			if gap {
				r.counters.Add("repl.gap_resyncs", 1)
				return
			}
			if err := s.send(wire.ReplMessage{Kind: wire.ReplAck, Epoch: m.Epoch, Seq: ackSeq}); err != nil {
				return
			}
		case wire.ReplHeartbeat:
			r.mu.Lock()
			behind := m.Seq > r.lastApplied
			ackSeq := r.lastApplied
			// Signed: our frontier can be past a stale heartbeat's Seq
			// (entries applied while the heartbeat was in flight), so
			// the lag is briefly negative.
			r.gauges.Set("repl.lag", int64(m.Seq)-int64(ackSeq))
			r.mu.Unlock()
			if behind {
				// The cursor passed entries we never saw (drop fault at
				// the stream tail); force a resync.
				r.counters.Add("repl.gap_resyncs", 1)
				return
			}
			if err := s.send(wire.ReplMessage{Kind: wire.ReplAck, Epoch: m.Epoch, Seq: ackSeq}); err != nil {
				return
			}
		case wire.ReplSnapshotBegin:
			snapBuf = &bytes.Buffer{}
			snapSeq = m.Seq
		case wire.ReplSnapshotChunk:
			if snapBuf == nil {
				return
			}
			_, _ = snapBuf.Write(m.Payload) // bytes.Buffer.Write cannot fail
		case wire.ReplSnapshotEnd:
			if snapBuf == nil || m.Seq != snapSeq {
				return
			}
			if err := r.installSnapshot(snapBuf, snapSeq); err != nil {
				s.reject(m.Epoch, err.Error())
				return
			}
			if err := s.send(wire.ReplMessage{Kind: wire.ReplAck, Epoch: m.Epoch, Seq: snapSeq}); err != nil {
				return
			}
			snapBuf = nil
		case wire.ReplInstall:
			// Cutover commit: ack only if our applied frontier matches the
			// shard's fenced final frontier exactly — otherwise the
			// migrator must keep draining the tail.
			if !isMigration || !r.adoptInstall(m.Epoch, m.Seq) {
				s.reject(r.Epoch(), "install refused: frontier mismatch")
				return
			}
			if err := s.send(wire.ReplMessage{Kind: wire.ReplAck, Epoch: m.Epoch, Seq: m.Seq}); err != nil {
				return
			}
		default:
			return
		}
	}
}

// admitStream vets a Hello against the fencing rules and adopts the
// sender as primary, demoting ourselves if we currently lead. Returns
// our applied frontier for the handshake reply.
func (r *Replica) admitStream(hello wire.ReplMessage) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.closed:
		return 0, errors.New("replica closed")
	case hello.Epoch < r.epoch:
		return 0, fmt.Errorf("stale epoch %d < %d", hello.Epoch, r.epoch)
	case hello.Epoch == r.epoch && r.role == RolePrimary:
		return 0, fmt.Errorf("split brain: two primaries at epoch %d", r.epoch)
	}
	if hello.Epoch > r.epoch {
		r.demoteLocked(hello.Epoch, string(hello.Payload))
	} else if len(hello.Payload) > 0 {
		r.primaryHint = string(hello.Payload)
	}
	return r.lastApplied, nil
}

// applyEntry applies one shipped entry under the dense-prefix rule:
// duplicates re-ack, the next sequence applies, anything else is a gap
// that tears the stream down for a resync (never skip — density is what
// makes "most advanced backup" equal "has every acked write").
func (r *Replica) applyEntry(m wire.ReplMessage) (ack uint64, gap bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.lastApplied, true
	}
	if m.Seq <= r.lastApplied {
		return r.lastApplied, false
	}
	if m.Seq != r.lastApplied+1 {
		return r.lastApplied, true
	}
	e := repllog.Entry{
		Seq:    m.Seq,
		Epoch:  m.Epoch,
		Packet: append([]byte(nil), m.Payload...),
	}
	req, err := e.Request()
	if err != nil {
		return r.lastApplied, true
	}
	if err := r.log.Append(e); err != nil {
		return r.lastApplied, true
	}
	// A sampled trace context on the shipped packet makes this backup's
	// apply a span of the originating write's trace, charged with the
	// store's model access counts just like the primary's apply.
	var span *telemetry.Span
	if tc, ok := wire.PacketTraceContext(e.Packet); ok && tc.Sampled {
		span = r.tel.Tracer().StartTrace(tc.TraceID, tc.Parent)
		span.SetOp("REPL_APPLY", 1)
	}
	// Apply after logging; a panic still advances the frontier (the
	// primary assigned the sequence and got the same panic response).
	resp := r.applyLocalLocked(req, span)
	r.tel.Tracer().Publish(span)
	_ = resp
	r.lastApplied = m.Seq
	r.counters.Add("repl.entries_applied", 1)
	return m.Seq, false
}

// installSnapshot replaces the replica's store with the primary's dump
// and rebases the log so replay resumes from snapSeq+1.
func (r *Replica) installSnapshot(buf *bytes.Buffer, snapSeq uint64) error {
	fresh, err := kvdirect.New(r.cfg)
	if err != nil {
		return err
	}
	if _, err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		fresh.Close()
		return err
	}
	// The swapped-in store keeps reporting into the replica's registry.
	fresh.SetTelemetry(r.tel)
	r.mu.Lock()
	old := r.store
	r.store = fresh
	r.lastApplied = snapSeq
	r.log.Reset(snapSeq)
	r.mu.Unlock()
	old.Close()
	r.counters.Add("repl.snapshots_installed", 1)
	r.counters.Add("repl.catchup_bytes", uint64(buf.Len()))
	return nil
}
