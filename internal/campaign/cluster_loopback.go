package campaign

import (
	"context"
	"fmt"

	"repro/internal/transport"
)

// runClustered executes the study with every campaign host in its own
// runtime, one transport endpoint per host, connected over the named
// transport kind on 127.0.0.1 — the "loopback multi-process" topology,
// with process boundaries replaced by runtime boundaries so it can run
// (and be raced) inside one test binary. lokirun -name wires real OS
// processes to the same Member protocol. sj is the checkpoint binding of
// whichever engine already opened the journal (Run, RunMatrix).
func runClustered(ctx context.Context, c *Campaign, st *Study, kind string, sj *studyJournal) (*StudyResult, error) {
	var res *Result
	err := withLoopbackCluster(c, st, kind, func(coordinator *Member) (err error) {
		coordinator.sj = sj
		res, err = coordinator.RunStudy(ctx, false)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res.Studies[0], nil
}

// withLoopbackCluster builds the loopback cluster — one endpoint and one
// member per campaign host — serves every non-coordinator member on its
// own goroutine, and hands the coordinator to drive. Teardown unblocks
// and drains the Serve goroutines on every exit path (a lost stop
// datagram or an early error must not wedge or leak them) before shutting
// runtimes down.
func withLoopbackCluster(c *Campaign, st *Study, kind string, drive func(coordinator *Member) error) error {
	hosts := make(map[string]string, len(c.Hosts))
	for _, h := range c.Hosts {
		hosts[h.Name] = h.Name // peer per host, peer name = host name
	}
	eps, err := transport.NewLoopbackCluster(kind, hosts)
	if err != nil {
		return err
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	var coordinator *Member
	members := make([]*Member, 0, len(eps))
	serveErr := make(chan error, len(eps))
	serving := 0
	defer func() {
		for _, m := range members {
			m.Quit()
		}
		for i := 0; i < serving; i++ {
			<-serveErr
		}
		for _, m := range members {
			m.Close()
		}
		if coordinator != nil {
			coordinator.Close()
		}
	}()
	for _, peer := range sortedKeys(nil, eps) {
		m, err := NewMember(c, st, eps[peer])
		if err != nil {
			return err
		}
		if m.Coordinator() {
			coordinator = m
			continue
		}
		members = append(members, m)
		serving++
		go func(m *Member) { serveErr <- m.Serve(context.Background()) }(m)
	}
	if coordinator == nil {
		return fmt.Errorf("campaign: no member owns reference host")
	}
	return drive(coordinator)
}
