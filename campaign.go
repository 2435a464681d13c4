package loki

import (
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/probe"
)

// Campaign-pipeline types (§2.3, Fig. 2.1).
type (
	// Campaign is a full fault injection campaign: hosts, studies, sync
	// and analysis configuration.
	Campaign = campaign.Campaign
	// Study is one study: node definitions, placement, experiment count.
	Study = campaign.Study
	// HostDef is a virtual host with its hidden clock error.
	HostDef = campaign.HostDef
	// SyncConfig tunes the synchronization mini-phases.
	SyncConfig = campaign.SyncConfig
	// RestartPolicy configures crash-restart supervision (§3.6.3).
	RestartPolicy = campaign.RestartPolicy
	// CampaignOutcome is a campaign's complete output.
	CampaignOutcome = campaign.Result
	// StudyOutcome aggregates one study's experiments.
	StudyOutcome = campaign.StudyResult
	// ExperimentRecord is one experiment's full record (runtime outcomes,
	// clock bounds, global timeline, analysis verdict).
	ExperimentRecord = campaign.ExperimentRecord
	// Checkpoint configures per-experiment record journaling under an
	// artifact directory and — with Resume — restart at the first missing
	// point/experiment instead of rerunning a killed campaign.
	Checkpoint = campaign.Checkpoint
)

// Instrumented assembles an application body with named fault actions
// (§3.5.7). Application authors build one with app.New.
type Instrumented = probe.Instrumented

// Instrument wraps an application body for fault registration, as
// app.New does:
//
//	in := loki.Instrument(body).On("bfault1", app.CrashFault())
func Instrument(body func(h *core.Handle)) *Instrumented { return probe.NewInstrumented(body) }
