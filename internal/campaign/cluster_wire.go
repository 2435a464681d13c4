package campaign

import (
	"fmt"
	"sort"
	"strings"

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
//	(pre-sync: clock ping-pong frames against every remote host)
//	start(i)  ->  members start their local auto-start nodes
//	done(i)   <-  a member's local nodes all exited/crashed
//	seal(i)   ->  members seal, kill stragglers, stream results back
//	result(i) <-  the local timelines (the §3.5.6 text format is the
//	              wire format), each chunked across frames' Doc field,
//	              plus outcomes
//	(post-sync), then the coordinator runs the ordinary analysis phase.
//
// Every coordinator->member instruction is re-broadcast until its effect
// is observed and every member->coordinator report is re-sent until the
// next instruction arrives, so the protocol rides out UDP loss with
// idempotent handlers instead of acknowledgement state machines.
//
// This file is the wire format; cluster_member.go is the follower state
// machine, cluster_coordinator.go the coordinator's testbed, and
// cluster_wait.go every wait on a real socket (the one file of this
// package allowed to read the wall clock). Frame bodies are clusterMsg and
// syncWire values under transport.EncodePayload.
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

// protocolVersion names this layout of clusterMsg and the ops below. gob
// drops fields the receiver does not know and zeroes the ones the sender
// did not send, so endpoints built from different layouts would exchange
// plausible, partly empty frames; the reset barrier compares versions
// instead. A peer predating the field reads as version 0.
const protocolVersion = 1

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
	opDone       = "done"
	opSeal       = "seal"
	opResult     = "result"
	opStop       = "stop"
	opTrace      = "trace"      // coordinator pulls a member's experiment trace
	opTraceRes   = "traceres"   // one member trace chunk
	opMetrics    = "metrics"    // coordinator pulls a member's registry snapshot
	opMetricsRes = "metricsres" // one member metrics chunk
)

// maxChunk is one frame's document budget: transport.MaxFrame less
// generous headroom for the gob envelope, outcome map, and frame header.
const maxChunk = transport.MaxFrame - 4*1024

// chunkDoc splits one encoded document across protocol frames: More marks
// a continuation, and the 60 KB frame limit stays a transport property,
// not a bound on how much a long experiment may record. An empty document
// still produces one frame, so the collector always completes.
func chunkDoc(index int, doc string) []clusterMsg {
	var frames []clusterMsg
	for start := 0; ; start += maxChunk {
		end := start + maxChunk
		if end > len(doc) {
			end = len(doc)
		}
		frames = append(frames, clusterMsg{Index: index, Doc: doc[start:end], More: end < len(doc)})
		if end >= len(doc) {
			return numberFrames(frames)
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

// joinDocs reassembles the documents of one peer's Seq-ordered frame set:
// consecutive chunks up to the first frame without More form one document,
// so a non-empty set yields at least one.
func joinDocs(frames []clusterMsg) ([]string, error) {
	var docs []string
	var pending strings.Builder
	more := false
	for i := range frames {
		pending.WriteString(frames[i].Doc)
		if more = frames[i].More; !more {
			docs = append(docs, pending.String())
			pending.Reset()
		}
	}
	if more {
		return nil, fmt.Errorf("frame set ended mid-document (%d bytes pending)", pending.Len())
	}
	return docs, nil
}

// resultFrames encodes a member's artifacts as result frames (the §3.5.6
// text format is the wire format), one chunked document per timeline, with
// outcomes repeated in each frame so any one carries them. Only a timeline
// that cannot be encoded at all is reported in Dropped (it is not counted
// in Total, or the coordinator would wait forever for a frame that can
// never arrive), and the coordinator then discards the experiment: a
// machine's injections cannot be verified from a global timeline that
// machine is missing from, so accepting would be unsound.
func resultFrames(logf func(string, ...interface{}), index int, locals []*timeline.Local, outcomes map[string]string) []clusterMsg {
	var frames []clusterMsg
	var dropped []string
	for _, tl := range locals {
		doc, err := timeline.EncodeString(tl)
		if err != nil {
			logf("campaign: cluster result: timeline %q not encodable: %v", tl.Owner, err)
			dropped = append(dropped, tl.Owner)
			continue
		}
		chunks := chunkDoc(index, doc)
		if len(chunks) > 1 {
			logf("campaign: cluster result: timeline %q is %d bytes, chunking across %d frames", tl.Owner, len(doc), len(chunks))
		}
		frames = append(frames, chunks...)
	}
	if len(frames) == 0 {
		frames = append(frames, clusterMsg{Index: index})
	}
	for i := range frames {
		frames[i].Outcomes = outcomes
		frames[i].Dropped = dropped
	}
	return numberFrames(frames)
}

// framesBySeq orders each peer's collected frame set.
func framesBySeq(got map[string]map[int]clusterMsg) map[string][]clusterMsg {
	out := make(map[string][]clusterMsg, len(got))
	for p, fr := range got {
		seqs := make([]int, 0, len(fr))
		for s := range fr {
			seqs = append(seqs, s)
		}
		sort.Ints(seqs)
		for _, s := range seqs {
			out[p] = append(out[p], fr[s])
		}
	}
	return out
}

// frameCounts summarises a partial collection for timeout diagnostics.
func frameCounts(got map[string]map[int]clusterMsg) map[string]int {
	out := make(map[string]int, len(got))
	for p, fr := range got {
		out[p] = len(fr)
	}
	return out
}

// sortedKeys returns a peer-keyed map's keys in order, so merges and
// imports happen in a reproducible sequence.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
