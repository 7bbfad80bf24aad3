package wire

import (
	"encoding/binary"
	"errors"
)

// Trace context propagation. A sampled request carries a compact trace
// context across every hop — gateway → client → server → replication
// log shipping → migration streams — so each layer's span can be
// stitched back into one tree. The context rides as a fixed 13-byte
// block APPENDED to an encoded request packet, gated by FlagTraceCtx on
// the first op's flag byte. DecodeRequests reads exactly `count` ops
// and ignores trailing bytes, so a context-bearing packet decodes
// identically on servers that predate the extension.
//
// Layout (little-endian):
//
//	trace ID   u64   random per end-to-end request
//	parent     u32   span ID of the sender's span (the receiver's parent)
//	flags      u8    high nibble 0xA (magic), bit 0 = sampled,
//	                 bits 1–3 reserved (must be zero)

// FlagTraceCtx marks a request packet that carries a trailing
// TraceContext block. It is set on the FIRST op only and ignored
// elsewhere, so op-level compression is untouched.
const FlagTraceCtx uint8 = 1 << 3

// TraceContextBytes is the fixed encoded size of a TraceContext.
const TraceContextBytes = 13

// traceCtxMagic occupies the high nibble of the flags byte so a
// truncated or misaligned tail cannot masquerade as a context.
const traceCtxMagic uint8 = 0xA0

// ErrBadTraceContext rejects a trace-context block with the wrong size,
// a bad magic nibble, or nonzero reserved bits.
var ErrBadTraceContext = errors.New("wire: bad trace context")

// TraceContext is the per-request trace identity propagated between
// hops.
type TraceContext struct {
	TraceID uint64 // end-to-end request identity, constant across hops
	Parent  uint32 // sender's span ID; the receiver parents under it
	Sampled bool   // false → hops must not allocate spans
}

// AppendTraceContext encodes tc and appends it to dst.
func AppendTraceContext(dst []byte, tc TraceContext) []byte {
	var b [TraceContextBytes]byte
	binary.LittleEndian.PutUint64(b[0:], tc.TraceID)
	binary.LittleEndian.PutUint32(b[8:], tc.Parent)
	b[12] = traceCtxMagic
	if tc.Sampled {
		b[12] |= 1
	}
	return append(dst, b[:]...)
}

// DecodeTraceContext decodes exactly one trace-context block. It is
// strict — exact length, magic nibble present, reserved bits zero — so
// every accepted input re-encodes to identical bytes (the fuzzer relies
// on that canonical round trip).
func DecodeTraceContext(b []byte) (TraceContext, error) {
	if len(b) != TraceContextBytes {
		return TraceContext{}, ErrBadTraceContext
	}
	if b[12]&0xF0 != traceCtxMagic || b[12]&0x0E != 0 {
		return TraceContext{}, ErrBadTraceContext
	}
	return TraceContext{
		TraceID: binary.LittleEndian.Uint64(b[0:]),
		Parent:  binary.LittleEndian.Uint32(b[8:]),
		Sampled: b[12]&1 != 0,
	}, nil
}

// MarkTraceContext sets FlagTraceCtx on an encoded request packet's
// first op and appends the 13-byte context block, returning the
// extended packet. The caller must not have appended a context already.
func MarkTraceContext(pkt []byte, tc TraceContext) ([]byte, error) {
	if len(pkt) < HeaderBytes+2 || binary.LittleEndian.Uint16(pkt[3:]) == 0 {
		return nil, ErrTruncated
	}
	if pkt[HeaderBytes+1]&FlagTraceCtx != 0 {
		return nil, ErrBadTraceContext
	}
	pkt[HeaderBytes+1] |= FlagTraceCtx
	return AppendTraceContext(pkt, tc), nil
}

// PacketTraceContext extracts the trace context from a request packet
// marked by MarkTraceContext. ok is false when the packet carries no
// context (or a corrupt one — the request itself is still decodable, so
// a damaged tail degrades to "untraced" rather than an error).
func PacketTraceContext(pkt []byte) (tc TraceContext, ok bool) {
	if len(pkt) < HeaderBytes+2+TraceContextBytes ||
		binary.LittleEndian.Uint16(pkt[3:]) == 0 ||
		pkt[HeaderBytes+1]&FlagTraceCtx == 0 {
		return TraceContext{}, false
	}
	tc, err := DecodeTraceContext(pkt[len(pkt)-TraceContextBytes:])
	if err != nil {
		return TraceContext{}, false
	}
	return tc, true
}
