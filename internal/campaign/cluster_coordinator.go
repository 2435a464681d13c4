package campaign

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/timeline"
)

// The coordinator member is the clustered testbed: the pipeline drives it
// exactly as it drives a worker's private runtime, and each phase becomes
// a re-broadcast instruction plus the wait for its effect.

func (m *Member) runtime() *core.Runtime { return m.rt }
func (m *Member) reference() string      { return m.ref }

// bind has nothing to do: a member is built for its one study.
func (m *Member) bind(*Campaign, *Study) error { return nil }

// recycle takes an analysed experiment's timelines back: of each remote
// node's it keeps one, the spare execute decodes that node's next
// timeline into, and the coordinator's own, with the slice, go back to its
// runtime (RecycleTimelines, which passes over the remote ones). A node
// runs only on the member that owns its placement host, so no owner is
// both remote and the runtime's.
func (m *Member) recycle(spent []*timeline.Local) {
	for _, l := range spent {
		if spare, remote := m.spares[l.Owner]; remote && spare == nil {
			m.spares[l.Owner] = l
		}
	}
	m.rt.RecycleTimelines(spent)
}

// decodeRemote decodes a timeline a peer shipped into its node's spare, or
// into a fresh timeline when the node has none (recycle). The timeline is
// out until recycle hands it back.
func (m *Member) decodeRemote(doc string) (*timeline.Local, error) {
	tl, err := timeline.DecodeStringInto(doc, m.spares[timeline.Owner(doc)])
	if err != nil {
		return nil, err
	}
	m.spares[tl.Owner] = nil
	return tl, nil
}

func (m *Member) spent() chan *rawExperiment { return m.raws }

// reset is the reset barrier: every member on a fresh testbed and the new
// epoch before any traffic flows. The reset frame carries the trace
// context: the point name members label their lanes with and whether a
// trace will be pulled for this experiment.
func (m *Member) reset(point string, index int, traced bool) error {
	clear(m.align)
	m.rt.ResetExperiment()
	m.tr.SetEpoch(uint64(index) + 1)
	msg := m.hello(index)
	msg.Point, msg.TraceOn = point, traced
	return m.barrier(msg)
}

// barrier broadcasts one reset frame until every member has acknowledged
// it, and fails on the first member (in name order) that checkPeer
// refuses. Passing it proves every member is up, listening, and running
// this study.
func (m *Member) barrier(msg clusterMsg) error {
	acks, err := m.gather(opReset, msg, opResetOK, clusterAckTimeout, true)
	if err != nil {
		return fmt.Errorf("reset barrier: %w", err)
	}
	for i, peer := range m.peers {
		if err := m.checkPeer(peer, acks[i][0], nil); err != nil {
			return fmt.Errorf("reset barrier: %w", err)
		}
	}
	m.barriered = true
	return nil
}

// execute starts the experiment everywhere (start is re-sent to each
// member until its startok, so a lost one is recovered while our own nodes
// run), waits for our own nodes, then for every member's done until the
// study timeout plus clusterAckTimeout after the start, seals everywhere
// and collects the result frames. Our own runtime seals first so no
// straggler restarts into a finished experiment.
func (m *Member) execute(index int) (executed, error) {
	if err := m.startLocal(); err != nil {
		return executed{}, err
	}
	clk, timeout := m.rt.Clock(), studyTimeout(m.st)
	start := clk.Now()
	var run executed
	_, err := m.gather(opStart, clusterMsg{Index: index}, opStartOK, timeout+clusterAckTimeout, true)
	if err == nil {
		run.completed = m.rt.Wait(timeout)
		var dones [][]clusterMsg
		dones, err = m.gather("", clusterMsg{Index: index}, opDone, timeout+clusterAckTimeout-clk.Since(start), true)
		for _, d := range dones {
			run.completed = run.completed && d[0].Completed
		}
	}
	if err != nil {
		run.completed = false // hung somewhere: abort, discard (§3.5.1)
	}
	m.rt.SealExperiment()
	results, err := m.gather(opSeal, clusterMsg{Index: index}, opResult, clusterAckTimeout, true)
	if err != nil {
		return executed{}, err
	}

	run.locals = m.rt.CollectTimelines()
	run.outcomes = m.rt.Outcomes()
	for i, peer := range m.peers {
		frames := results[i]
		for _, f := range frames {
			for k, v := range f.Outcomes {
				run.outcomes[k] = v
			}
		}
		run.lost = append(run.lost, frames[0].Dropped...)
		m.docs, err = joinDocs(m.docs[:0], frames)
		if err != nil {
			return executed{}, fmt.Errorf("peer %s results: %w", peer, err)
		}
		for _, doc := range m.docs {
			if doc == "" {
				continue // the placeholder frame of a peer with no timelines
			}
			tl, err := m.decodeRemote(doc)
			if err != nil {
				return executed{}, fmt.Errorf("decoding peer %s timeline: %w", peer, err)
			}
			run.locals = append(run.locals, tl)
		}
	}
	slices.SortFunc(run.locals, func(a, b *timeline.Local) int { return cmp.Compare(a.Owner, b.Owner) })
	slices.Sort(run.lost)
	return run, nil
}

// flushMembers runs one reset barrier at the given index without running
// an experiment: every member acknowledges (resetting idempotently if it
// was behind), proving it is up and listening. A study that executed
// nothing needs it — otherwise stopCluster's stop, re-broadcast for only
// five retry ticks, could pass its bound before a slow-starting member
// process binds its socket, stranding it in Serve forever. (A normal run
// gets this guarantee from the first experiment's reset barrier.) Failure
// is logged, not fatal: members that are genuinely gone must not wedge a
// resume that needs nothing from them.
func (m *Member) flushMembers(index int) {
	if len(m.peers) == 0 {
		return
	}
	if err := m.barrier(m.hello(index)); err != nil {
		m.rt.Logf("campaign: cluster %s: resume flush barrier: %v", m.peer, err)
	}
}

// ensureJournal opens the member's own journal from the campaign's
// Checkpoint when no binding was handed down by an in-process engine —
// the stand-alone coordinator path (lokirun -name). It returns the journal
// it opened, which the caller closes, or nil when nothing was opened here.
func (m *Member) ensureJournal() (*journal, error) {
	if m.sj != nil || m.c.Checkpoint == nil {
		return nil, nil
	}
	j, err := openCampaignJournal(m.c)
	if err != nil {
		return nil, err
	}
	m.sj = j.study("", m.st, m.st.Name)
	return j, nil
}

// RunStudy drives the whole study from the coordinator member, returning
// a result identical in shape to Run's, of one study. Journaled
// experiments are skipped (the members never see a reset for them); fresh
// records are journaled as their analysis completes, so a crashed
// coordinator resumes at the first missing experiment. With one, the study
// is run as RunSingle runs it — lokirun runtime's mode: a single
// experiment whose record keeps its local timelines and stamps.
//
// Around the pipeline, which gets this member as its testbed, RunStudy
// ends the study cluster-wide: after a successful run a flush barrier if no
// experiment executed (all were journaled) and the metrics pull that folds
// every member's registry into ours, and on every path the acknowledged
// stop. When ctx is cancelled the member protocol is quit (waits but the
// stop unblock immediately, like a SIGINT drain), no further experiments
// start, and ctx.Err() is returned, exactly as the in-process pool does.
func (m *Member) RunStudy(ctx context.Context, one bool) (_ *Result, err error) {
	c := m.c
	if one {
		c = single(c)
	}
	stopWatch := onCancel(ctx, m.Quit)
	defer stopWatch()
	j, err := m.ensureJournal()
	if err != nil {
		return nil, err
	}
	defer closeJournal(j, &err)
	units := make([]unit, 1)
	units[0].set(c, m.st, m.sj, m.peer)
	_, err = runPipeline(ctx, units, 1, func() (testbed, func(error)) { return m, func(error) {} }, newPool(c))
	if err == nil {
		n := experimentCount(c, m.st)
		if !m.barriered {
			m.flushMembers(n)
		}
		m.pullMemberMetrics(n)
	}
	m.stopCluster()
	if errors.Is(err, errMemberQuit) && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	sr := &StudyResult{Name: m.st.Name, Records: units[0].records}
	return &Result{Name: c.Name, Studies: []*StudyResult{sr}, JournalOnly: j.journalOnly()}, nil
}
