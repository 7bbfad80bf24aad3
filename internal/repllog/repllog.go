// Package repllog is the replication log shared by primaries and
// backups in a kvrepl replica group.
//
// The log is an in-memory, bounded window of sequence-numbered entries:
// the primary appends every mutating operation before shipping it, and
// each backup appends every entry it applies, so whichever replica is
// promoted can replay its own tail to the others. Entries are dense
// (seq N is always followed by N+1) and the window is truncated from
// the front once it exceeds its capacity — a replica that has fallen
// behind the window's first retained entry must catch up by snapshot
// instead of replay, exactly the Raft-style compaction split.
package repllog

import (
	"errors"
	"sync"

	"kvdirect/internal/wire"
)

// DefaultWindow is the default number of retained entries.
const DefaultWindow = 4096

// Entry is one replicated mutating operation.
type Entry struct {
	Seq   uint64 // dense, starting at 1
	Epoch uint64 // election epoch of the primary that created it
	// Packet is the encoded single-operation request packet
	// (wire.AppendRequests of one mutating op) — the same bytes a
	// client would have sent, so replicas reuse the standard decoder.
	Packet []byte
}

// Request decodes the entry's operation.
func (e Entry) Request() (wire.Request, error) {
	reqs, err := wire.DecodeRequests(e.Packet)
	if err != nil {
		return wire.Request{}, err
	}
	if len(reqs) != 1 {
		return wire.Request{}, ErrBadEntry
	}
	return reqs[0], nil
}

// NewEntry encodes req into an entry with the given seq and epoch.
func NewEntry(seq, epoch uint64, req wire.Request) (Entry, error) {
	pkt, err := wire.AppendRequests(nil, []wire.Request{req})
	if err != nil {
		return Entry{}, err
	}
	return Entry{Seq: seq, Epoch: epoch, Packet: pkt}, nil
}

// Log errors.
var (
	// ErrGap reports an append whose seq is not exactly lastSeq+1.
	ErrGap = errors.New("repllog: sequence gap")
	// ErrTruncated reports a replay request below the retained window.
	ErrTruncated = errors.New("repllog: sequence truncated out of the window")
	// ErrBadEntry reports an entry whose packet is not a single op.
	ErrBadEntry = errors.New("repllog: entry is not a single-operation packet")
)

// Log is a bounded, dense window of entries. It is safe for concurrent
// use: the primary's client path appends while peer-sync goroutines
// read tails for replay.
type Log struct {
	mu      sync.Mutex
	entries []Entry // entries[i].Seq == first+uint64(i)
	first   uint64  // seq of entries[0]; meaningful when len(entries) > 0
	last    uint64  // last appended seq (survives truncation)
	window  int
	pinned  uint64 // entries with Seq >= pinned survive truncation; 0 = unpinned
}

// New returns an empty log retaining at most window entries
// (DefaultWindow if window <= 0).
func New(window int) *Log {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Log{window: window}
}

// Append adds e to the log. The first append fixes the log's base; every
// later append must continue the dense sequence or ErrGap is returned.
func (l *Log) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last != 0 && e.Seq != l.last+1 {
		return ErrGap
	}
	if len(l.entries) == 0 {
		l.first = e.Seq
	}
	l.entries = append(l.entries, e)
	l.last = e.Seq
	if len(l.entries) > l.window {
		drop := len(l.entries) - l.window
		// A pin fences truncation: entries at or above the pinned
		// sequence stay retained even when the window overflows, so a
		// live migration's tail handoff never races the evictor. The
		// window may grow past its capacity while a pin is held.
		if l.pinned != 0 {
			limit := 0
			if l.pinned > l.first {
				limit = int(l.pinned - l.first)
			}
			if drop > limit {
				drop = limit
			}
		}
		if drop > 0 {
			// Copy forward instead of re-slicing so dropped packets are
			// released to the GC rather than pinned by the backing array.
			l.entries = append(l.entries[:0], l.entries[drop:]...)
			l.first += uint64(drop)
		}
	}
	return nil
}

// Pin fences truncation at seq: every retained entry with Seq >= seq
// survives window overflow until Unpin (or a later Pin) releases it.
// A migration pins the tail it still has to hand off so a burst of
// writes cannot evict entries between two shipping rounds. Pinning does
// not resurrect entries already truncated.
func (l *Log) Pin(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pinned = seq
}

// Unpin releases the truncation fence; the next Append trims the log
// back toward its window.
func (l *Log) Unpin() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pinned = 0
}

// LastSeq returns the highest appended sequence number (0 when nothing
// was ever appended).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// FirstSeq returns the lowest retained sequence number, ok=false when
// the log holds no entries.
func (l *Log) FirstSeq() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		return 0, false
	}
	return l.first, true
}

// Len returns the number of retained entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Since returns a copy of every retained entry with Seq > seq, in order.
// It returns ErrTruncated when entries after seq have already been
// dropped from the window (the caller must fall back to a snapshot).
func (l *Log) Since(seq uint64) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.last {
		return nil, nil
	}
	if len(l.entries) == 0 || seq+1 < l.first {
		return nil, ErrTruncated
	}
	tail := l.entries[seq+1-l.first:]
	return append([]Entry(nil), tail...), nil
}

// Reset drops every entry and re-bases the log so the next append must
// carry seq, used after a snapshot install sets a new applied frontier.
func (l *Log) Reset(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = l.entries[:0]
	l.last = seq
}
