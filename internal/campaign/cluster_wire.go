package campaign

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/intern"
	"repro/internal/timeline"
	"repro/internal/transport"
)

// The clustered testbed: one core.Runtime per transport endpoint, each
// owning a subset of the virtual hosts, cooperating through a small
// control protocol to run the same experiments the in-process testbed
// runs. One endpoint — the owner of the lexicographically first host, so
// the analysis reference machine is local to it — coordinates:
//
//	reset(i)  ->  members reset their runtimes, move to epoch i+1,  ack;
//	              reset and ack both carry the sender's protocol version
//	              and study fingerprint, and either side refuses a peer
//	              whose values differ (checkPeer)
//	(pre-sync: clock ping-pong rounds, each to every remote host at once)
//	start(i)  ->  members start their local auto-start nodes and
//	              acknowledge (startok)
//	done(i)   <-  a member's local nodes all exited/crashed
//	seal(i)   ->  members seal, kill stragglers, stream results back
//	result(i) <-  the local timelines (the §3.5.6 text format is the
//	              wire format), each chunked across frames' Doc field,
//	              plus outcomes
//	(post-sync), then the coordinator runs the ordinary analysis phase.
//	stop      ->  at the end of the study: members acknowledge (stopok)
//	              and leave Serve
//
// Every coordinator->member instruction is re-sent to each member until
// its effect (for start, the startok) is observed and every
// member->coordinator report is re-sent until the next instruction
// arrives, so the protocol rides out UDP loss with idempotent handlers
// instead of acknowledgement state machines.
//
// This file is the wire format; cluster_member.go is the follower state
// machine, cluster_coordinator.go the coordinator's testbed, and
// cluster_wait.go every wait on a peer, each on the runtime's clock.Clock.
// Frame bodies are clusterMsg values (ctrl frames) and syncWire values
// (sync pings and pongs) in the fixed layout below, never gob: the frames
// are frequent, and a peer of another protocol version must be refused,
// not half-read.
type clusterMsg struct {
	Index     int
	Peer      string
	Completed bool
	Outcomes  map[string]string
	// Doc is one chunk of the document the frame's op (Message.State)
	// says it carries: an encoded local timeline (result), the member's
	// trace lane (traceres), its metrics snapshot JSON (metricsres).
	Doc     string
	More    bool     // the chunked document continues in the next frame
	Dropped []string // owners of timelines that could not be shipped
	Seq     int      // frame ordinal within this peer's set
	Total   int      // frame count from this peer

	// Version and Fingerprint, carried on reset and resetok frames, are
	// the sender's protocolVersion and studyFingerprint.
	Version     int
	Fingerprint string
	// Trace context, carried on reset frames: the point name members
	// label their trace buffers with, and whether the coordinator will
	// pull a trace for this experiment.
	Point   string
	TraceOn bool
}

// protocolVersion names this layout of clusterMsg and syncWire and the
// ops below. Every payload's header carries it, and reset and resetok
// frames carry it again in Version for the barrier to compare. Up to
// version 2 the payloads were gob, which drops fields the receiver does
// not know and zeroes the ones the sender did not send, so endpoints built
// from different layouts exchanged plausible, partly empty frames that
// only the barrier's comparison caught. A peer predating the field sent
// version 0; version 2 added startok and stopok; version 3 is the fixed
// layout, whose decoder refuses a payload of any other layout outright
// (wireVersionError).
const protocolVersion = 3

// syncWire is the payload of the clock-sync ping-pong frames.
type syncWire struct {
	Seq        int
	RemoteRecv int64 // remote virtual host clock at ping receipt
	RemoteSend int64 // remote virtual host clock at pong transmission
	// Process runtime-clock readings (UnixNano) taken alongside the
	// virtual stamps. The virtual stamps feed the convex-hull analysis;
	// these feed the coordinator's NTP-style midpoint estimate of each
	// member's process-clock offset, which aligns merged trace lanes.
	ProcRecv int64
	ProcSend int64
}

// Protocol ops, carried in Message.State of KindCtrl frames.
const (
	opReset      = "reset"
	opResetOK    = "resetok"
	opStart      = "start"
	opStartOK    = "startok"
	opDone       = "done"
	opSeal       = "seal"
	opResult     = "result"
	opStop       = "stop"
	opStopOK     = "stopok"
	opTrace      = "trace"      // coordinator pulls a member's experiment trace
	opTraceRes   = "traceres"   // one member trace chunk
	opMetrics    = "metrics"    // coordinator pulls a member's registry snapshot
	opMetricsRes = "metricsres" // one member metrics chunk
)

// The layout of every payload the control plane sends (clusterMsg on ctrl
// frames, syncWire on sync pings and pongs):
//
//	u16  wireMagic
//	u16  protocolVersion
//	then the fields in declaration order:
//	  int, int64      8 bytes, big-endian
//	  bool            1 byte, 0 or 1
//	  string          u32 length + bytes
//	  Outcomes        u32 count + key/value strings, keys strictly increasing
//	  Dropped         u32 count + strings
//
// so a syncWire payload is the header and 40 bytes of fields. The layout is
// canonical: a payload decodes only if encoding its value gives back the
// same bytes. The decoders are strict. A payload that does not start with
// this header is a wireVersionError; one that ends early, has bytes left
// over, holds a bool byte other than 0 or 1 or keys out of order fails,
// and so does a count or length larger than the bytes that remain, before
// anything is allocated for it.
const (
	wireMagic      = 0x4c4b // "LK"
	wireHeaderSize = 4
	syncWireSize   = wireHeaderSize + 5*8
)

var (
	errWireShort    = errors.New("campaign: control payload ends early")
	errWireTrailing = errors.New("campaign: control payload has trailing bytes")
	errWireBool     = errors.New("campaign: control payload bool is neither 0 nor 1")
	errWireKeyOrder = errors.New("campaign: control payload outcome keys out of order")
)

// wireVersionError is a payload that does not start with this endpoint's
// header: its sender speaks another protocol version. Version is the one
// the header names, or -1 when there is no header at all.
type wireVersionError struct{ Version int }

func (e *wireVersionError) Error() string {
	return "campaign: control payload of protocol version " + e.peerVersion() + ", this endpoint version " + strconv.Itoa(protocolVersion)
}

// peerVersion says which protocol version the payload's sender speaks. A
// payload without the header comes from a peer before version 3, which
// sent gob.
func (e *wireVersionError) peerVersion() string {
	if e.Version < 0 {
		return "older than 3 (gob payloads)"
	}
	return strconv.Itoa(e.Version)
}

// wireSize is the length of cm's payload.
func (cm *clusterMsg) wireSize() int {
	n := wireHeaderSize + 4*8 + 3*1 + 6*4 + len(cm.Peer) + len(cm.Doc) + len(cm.Fingerprint) + len(cm.Point)
	for k, v := range cm.Outcomes {
		n += 8 + len(k) + len(v)
	}
	for _, d := range cm.Dropped {
		n += 4 + len(d)
	}
	return n
}

// appendWire appends cm's payload to b.
func (cm *clusterMsg) appendWire(b []byte) []byte {
	b = appendWireHeader(b)
	b = appendWireInt(b, int64(cm.Index))
	b = appendWireString(b, cm.Peer)
	b = appendWireBool(b, cm.Completed)
	b = binary.BigEndian.AppendUint32(b, uint32(len(cm.Outcomes)))
	var stack [8]string // the keys of a typical frame sort without allocating
	keys := stack[:0]
	for k := range cm.Outcomes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = appendWireString(b, k)
		b = appendWireString(b, cm.Outcomes[k])
	}
	b = appendWireString(b, cm.Doc)
	b = appendWireBool(b, cm.More)
	b = binary.BigEndian.AppendUint32(b, uint32(len(cm.Dropped)))
	for _, d := range cm.Dropped {
		b = appendWireString(b, d)
	}
	b = appendWireInt(b, int64(cm.Seq))
	b = appendWireInt(b, int64(cm.Total))
	b = appendWireInt(b, int64(cm.Version))
	b = appendWireString(b, cm.Fingerprint)
	b = appendWireString(b, cm.Point)
	return appendWireBool(b, cm.TraceOn)
}

// decodeClusterMsg decodes a payload written by clusterMsg.appendWire. The
// strings never alias b: Peer, Fingerprint, Point and the outcome keys and
// values, which repeat frame after frame, are read through names (a nil
// table copies them), and the rest are copied.
func decodeClusterMsg(b []byte, names *intern.Table) (clusterMsg, error) {
	r := wireReader{b: b}
	r.header()
	var cm clusterMsg
	cm.Index = int(r.int())
	cm.Peer = r.name(names)
	cm.Completed = r.bool()
	if n := r.count(8); n > 0 {
		cm.Outcomes = make(map[string]string, n)
		prev := ""
		for i := 0; i < n && r.err == nil; i++ {
			k, v := r.name(names), r.name(names)
			if i > 0 && k <= prev && r.err == nil {
				r.err = errWireKeyOrder
			}
			cm.Outcomes[k], prev = v, k
		}
	}
	cm.Doc = r.string()
	cm.More = r.bool()
	if n := r.count(4); n > 0 {
		cm.Dropped = make([]string, n)
		for i := range cm.Dropped {
			cm.Dropped[i] = r.string()
		}
	}
	cm.Seq = int(r.int())
	cm.Total = int(r.int())
	cm.Version = int(r.int())
	cm.Fingerprint = r.name(names)
	cm.Point = r.name(names)
	cm.TraceOn = r.bool()
	if err := r.end(); err != nil {
		return clusterMsg{}, err
	}
	return cm, nil
}

// appendTo appends w's payload to b.
func (w syncWire) appendTo(b []byte) []byte {
	b = appendWireHeader(b)
	b = appendWireInt(b, int64(w.Seq))
	b = appendWireInt(b, w.RemoteRecv)
	b = appendWireInt(b, w.RemoteSend)
	b = appendWireInt(b, w.ProcRecv)
	return appendWireInt(b, w.ProcSend)
}

// decodeSyncWire decodes a payload written by syncWire.appendTo, allocating
// nothing unless it fails.
func decodeSyncWire(b []byte) (syncWire, error) {
	r := wireReader{b: b}
	r.header()
	var w syncWire
	w.Seq = int(r.int())
	w.RemoteRecv = r.int()
	w.RemoteSend = r.int()
	w.ProcRecv = r.int()
	w.ProcSend = r.int()
	if err := r.end(); err != nil {
		return syncWire{}, err
	}
	return w, nil
}

func appendWireHeader(b []byte) []byte {
	return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(b, wireMagic), protocolVersion)
}

func appendWireInt(b []byte, v int64) []byte { return binary.BigEndian.AppendUint64(b, uint64(v)) }

func appendWireBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendWireString(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// wireReader reads one payload front to back. After its first error every
// read returns a zero value and the error sticks.
type wireReader struct {
	b   []byte
	err error
}

// header consumes the payload header, failing with a wireVersionError
// unless it is this endpoint's.
func (r *wireReader) header() {
	if len(r.b) < wireHeaderSize || binary.BigEndian.Uint16(r.b) != wireMagic {
		r.err = &wireVersionError{Version: -1}
		return
	}
	if v := binary.BigEndian.Uint16(r.b[2:]); v != protocolVersion {
		r.err = &wireVersionError{Version: int(v)}
		return
	}
	r.b = r.b[wireHeaderSize:]
}

// next consumes n bytes, or fails when fewer remain.
func (r *wireReader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = errWireShort
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *wireReader) int() int64 {
	if p := r.next(8); r.err == nil {
		return int64(binary.BigEndian.Uint64(p))
	}
	return 0
}

func (r *wireReader) u32() uint32 {
	if p := r.next(4); r.err == nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (r *wireReader) bool() bool {
	p := r.next(1)
	switch {
	case r.err != nil:
		return false
	case p[0] > 1:
		r.err = errWireBool
		return false
	}
	return p[0] == 1
}

// string reads a length-prefixed string, copying it out of the payload.
// next refuses a length beyond the remaining bytes before anything is
// allocated.
func (r *wireReader) string() string {
	n := r.u32()
	return string(r.next(int(n)))
}

// name reads a length-prefixed string through names.
func (r *wireReader) name(names *intern.Table) string {
	n := r.u32()
	return names.String(r.next(int(n)))
}

// count reads a collection's length, failing when its items, each at
// least itemSize bytes, could not fit in what remains.
func (r *wireReader) count(itemSize int) int {
	n := int(r.u32())
	if r.err == nil && n > len(r.b)/itemSize {
		r.err = errWireShort
		return 0
	}
	return n
}

// end fails unless the payload has been read exactly.
func (r *wireReader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = errWireTrailing
	}
	return r.err
}

// docRoom is how many bytes of Doc fit in one op frame from -> to beside
// the rest of cm: transport.MaxFrame less the frame header and the
// encoded size of every other field (sendCtrl sets Peer to from). Seq
// and Total are fixed-width, so the room is the same for every frame of a
// set.
func docRoom(from, to, op string, cm clusterMsg) int {
	cm.Peer, cm.Doc = from, ""
	return transport.MaxFrame - transport.Overhead(transport.Message{From: from, To: to, State: op}) - cm.wireSize()
}

// chunkDoc splits one encoded document across protocol frames carrying at
// most room bytes of it each (docRoom), appended to dst and numbered as a
// set of their own: More marks a continuation, and the 60 KB frame limit
// stays a transport property, not a bound on how much a long experiment
// may record. An empty document still produces one frame, so the
// collector always completes. Without any room (the rest of a frame alone
// exceeds the limit) the document goes whole into one frame, which the
// transport then refuses to send.
func chunkDoc(dst []clusterMsg, room, index int, doc string) []clusterMsg {
	if room <= 0 {
		room = max(len(doc), 1)
	}
	n := len(dst)
	for start := 0; ; start += room {
		end := min(start+room, len(doc))
		dst = append(dst, clusterMsg{Index: index, Doc: doc[start:end], More: end < len(doc)})
		if end >= len(doc) {
			numberFrames(dst[n:])
			return dst
		}
	}
}

// numberFrames stamps Seq/Total over one peer's complete frame set.
func numberFrames(frames []clusterMsg) []clusterMsg {
	for i := range frames {
		frames[i].Seq = i
		frames[i].Total = len(frames)
	}
	return frames
}

// joinDocs appends the documents of one peer's Seq-ordered frame set to
// dst: consecutive chunks up to the first frame without More form one
// document, so a non-empty set yields at least one. A document of one
// chunk is that chunk's string.
func joinDocs(dst []string, frames []clusterMsg) ([]string, error) {
	var pending strings.Builder
	more := false
	for i := range frames {
		f := &frames[i]
		switch {
		case !more && !f.More:
			dst = append(dst, f.Doc)
		case f.More:
			pending.WriteString(f.Doc)
		default:
			pending.WriteString(f.Doc)
			dst = append(dst, pending.String())
			pending.Reset()
		}
		more = f.More
	}
	if more {
		return dst, fmt.Errorf("frame set ended mid-document (%d bytes pending)", pending.Len())
	}
	return dst, nil
}

// resultFrames appends to dst the result frames that carry a member's
// artifacts from -> to (the §3.5.6 text format is the wire format), one
// chunked document per timeline, with outcomes repeated in each frame so
// any one carries them; each chunk gets exactly the room the rest of its
// frame leaves. Only a timeline that cannot be encoded at all is reported
// in Dropped (it is not counted in Total, or the coordinator would wait
// forever for a frame that can never arrive), and the coordinator then
// discards the experiment: a machine's injections cannot be verified from
// a global timeline that machine is missing from, so accepting would be
// unsound. The timelines' text is appended into text, the caller's
// scratch, returned for its next call; the documents are substrings of
// one string made of it.
func resultFrames(dst []clusterMsg, text []byte, logf func(string, ...interface{}), from, to string, index int, locals []*timeline.Local, outcomes map[string]string) ([]clusterMsg, []byte) {
	// doc says where locals[local]'s text ends in text; a typical member's
	// timelines fit in stack, without allocating.
	type doc struct{ local, end int }
	var stack [8]doc
	docs := stack[:0]
	var dropped []string
	text = text[:0]
	for i, tl := range locals {
		var err error
		if text, err = tl.AppendText(text); err != nil { // text comes back as it was
			logf("campaign: cluster result: timeline %q not encodable: %v", tl.Owner, err)
			dropped = append(dropped, tl.Owner)
			continue
		}
		docs = append(docs, doc{i, len(text)})
	}
	all := string(text)
	room := docRoom(from, to, opResult, clusterMsg{Index: index, Outcomes: outcomes, Dropped: dropped})
	if room <= 0 {
		logf("campaign: cluster result: %d outcomes and %d dropped owners alone exceed a frame", len(outcomes), len(dropped))
	}
	frames, start := dst, 0
	for _, d := range docs {
		n := len(frames)
		frames = chunkDoc(frames, room, index, all[start:d.end])
		if chunks := len(frames) - n; chunks > 1 {
			logf("campaign: cluster result: timeline %q is %d bytes, chunking across %d frames", locals[d.local].Owner, d.end-start, chunks)
		}
		start = d.end
	}
	if len(frames) == 0 {
		frames = append(frames, clusterMsg{Index: index})
	}
	for i := range frames {
		frames[i].Outcomes = outcomes
		frames[i].Dropped = dropped
	}
	return numberFrames(frames), text
}

// sortedKeys returns m's keys in byte order (strings.Compare's), in dst's
// array: a peer-keyed map's keys so merges and imports happen in a
// reproducible sequence, and a record's map keys as encoding/json orders
// a map's members.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	dst = slices.Grow(dst[:0], len(m))
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
