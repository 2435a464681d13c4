package loki

import (
	"time"

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
	// StepBound is the estimated magnitude interval of a suspected clock
	// step, from the per-phase convex-hull fits.
	StepBound = campaign.StepBound
	// Checkpoint configures per-experiment record journaling under an
	// artifact directory and — with Resume — restart at the first missing
	// point/experiment instead of rerunning a killed campaign.
	Checkpoint = campaign.Checkpoint
)

// Probe construction (§3.5.7 and the Chapter 6 probe templates).
type (
	// Instrumented assembles an application body with named fault actions.
	Instrumented = probe.Instrumented
	// FaultAction is one fault's injection behaviour.
	FaultAction = probe.Action
	// MemoryRegion is a probe-corruptible byte region.
	MemoryRegion = probe.MemoryRegion
	// MessageDropper simulates communication faults.
	MessageDropper = probe.MessageDropper
)

// Instrument wraps an application body for fault registration:
//
//	app := loki.Instrument(body).On("bfault1", loki.CrashFault())
func Instrument(body func(h *core.Handle)) *Instrumented { return probe.NewInstrumented(body) }

// CrashFault kills the node on injection.
func CrashFault() FaultAction { return probe.CrashFault() }

// DelayedCrashFault crashes after a dormancy (§1.1) with optional jitter.
func DelayedCrashFault(dormancy, jitter time.Duration, seed int64) FaultAction {
	return probe.DelayedCrashFault(dormancy, jitter, seed)
}

// MemoryFault flips one random bit in region per injection.
func MemoryFault(region *MemoryRegion, seed int64) FaultAction {
	return probe.MemoryFault(region, seed)
}

// NewMemoryRegion allocates a corruptible region.
func NewMemoryRegion(data []byte) *MemoryRegion { return probe.NewMemoryRegion(data) }

// MessageDropFault drops the next n application messages per injection.
func MessageDropFault(d *MessageDropper, n int) FaultAction { return probe.MessageDropFault(d, n) }

// NewMessageDropper creates a communication-fault helper.
func NewMessageDropper(seed int64) *MessageDropper { return probe.NewMessageDropper(seed) }

// CPUFault busy-waits on injection, stalling progress without crashing.
func CPUFault(busy time.Duration) FaultAction { return probe.CPUFault(busy) }

// NoteFault records the injection without perturbing the application.
func NoteFault() FaultAction { return probe.NoteFault() }
