package scout

// This file re-exports the domain types and constructors downstream users
// need to drive the pipeline, so the whole system is usable through the
// single public package while implementations stay in internal/. A name is
// here because non-test Go outside this package names it (a command, an
// example, the benchmark or internal/eval), or, for a type, because it is
// the type of a field, parameter or result of this package's exported API:
// an exported field of its own exported types, or the signature of an
// exported function or method it declares or of a function this file
// re-exports that such a caller names. Prose, the README's included, is no
// use. Anything else is reached through the internal package that defines
// it; TestArchitecture holds the rule.

import (
	"scout/internal/collect"
	"scout/internal/compile"
	"scout/internal/correlate"
	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/risk"
	"scout/internal/rule"
	"scout/internal/scenario"
	"scout/internal/store"
	"scout/internal/stream"
	"scout/internal/topo"
	"scout/internal/workload"
)

// Object identity.
type (
	// ObjectRef uniquely names a policy or physical object.
	ObjectRef = object.Ref
	// ObjectID is the numeric identity of an object within its kind.
	ObjectID = object.ID
)

// Object reference constructors.
var (
	// FilterRef names a filter object.
	FilterRef = object.Filter
	// ParseObjectRef parses "kind:id" strings.
	ParseObjectRef = object.ParseRef
)

// Policy model.
type (
	// Policy is a complete tenant network policy (desired state).
	Policy = policy.Policy
	// VRF is a virtual-routing-and-forwarding scope object.
	VRF = policy.VRF
	// EPG is an endpoint group.
	EPG = policy.EPG
	// Endpoint is a workload attached to a leaf switch.
	Endpoint = policy.Endpoint
	// Filter is a reusable set of traffic classification entries.
	Filter = policy.Filter
	// FilterEntry is one (protocol, port range, action) clause.
	FilterEntry = policy.FilterEntry
	// Contract glues EPG pairs to filters.
	Contract = policy.Contract
)

var (
	// NewPolicy returns an empty policy.
	NewPolicy = policy.New
	// PolicyFromJSON decodes and validates a serialized policy.
	PolicyFromJSON = policy.FromJSON
	// PortEntry builds a single-port allow filter entry.
	PortEntry = policy.PortEntry
)

// Rules.
type (
	// Rule is a prioritized access-control entry (logical or TCAM).
	Rule = rule.Rule
	// Protocol is an IP protocol number.
	Protocol = rule.Protocol
)

// ProtoTCP is the TCP protocol number.
const ProtoTCP = rule.ProtoTCP

// Topology.
type (
	// Topology is the leaf-switch attachment view.
	Topology = topo.Topology
)

// TopologyFromPolicy derives the topology from endpoint placements.
var TopologyFromPolicy = topo.FromPolicy

// Fabric simulation.
type (
	// Fabric simulates controller, switch agents, and TCAMs.
	Fabric = fabric.Fabric
	// FabricOptions configures a fabric.
	FabricOptions = fabric.Options
)

// NewFabric creates a deployment fabric for the policy and topology.
var NewFabric = fabric.New

// Logs.
type (
	// ChangeLog is the controller's policy change log.
	ChangeLog = faultlog.ChangeLog
	// FaultLog is the device fault log.
	FaultLog = faultlog.FaultLog
)

// Dataplane event streaming.
type (
	// EventQueue coalesces switch-scoped events into bounded batches
	// (per-switch dedupe, size cuts, overflow-to-coalesce). Only the
	// benchmark's event-storm journey uses it (ROADMAP 13(b)).
	EventQueue = stream.Queue
	// EventQueueOptions configures an EventQueue.
	EventQueueOptions = stream.Options
	// EventBatch is one coalesced batch cut from an EventQueue: the cue
	// for one Session.Analyze refresh, and the switches that prompted it.
	EventBatch = stream.Batch
)

// EventTCAMChange is the kind of event a TCAM write emits.
const EventTCAMChange = faultlog.EventTCAMChange

// NewEventQueue creates a coalescing event queue.
var NewEventQueue = stream.New

// Risk models and compiled deployments.
type (
	// RiskOverlay is a copy-on-write failure overlay over an immutable
	// pristine risk model.
	RiskOverlay = risk.Overlay
	// Deployment is the compiled per-switch logical rule set.
	Deployment = compile.Deployment
)

// Workload synthesis (the paper's §VI-A datasets).
type (
	// WorkloadSpec parameterizes synthetic policy generation.
	WorkloadSpec = workload.Spec
)

var (
	// GenerateWorkload synthesizes a policy and topology from a spec.
	GenerateWorkload = workload.Generate
	// WorkloadSpecByName returns the spec named production, testbed or small.
	WorkloadSpecByName = workload.SpecByName
)

// State collection.
type (
	// Collector snapshots fabric TCAM state into numbered epochs, keeping none.
	Collector = collect.Collector
	// Epoch is one immutable TCAM collection.
	Epoch = collect.Epoch
)

// NewCollector creates a collector over a fabric.
var NewCollector = collect.New

// Scenario is a declarative, replayable fault scenario.
type Scenario = scenario.Scenario

// ParseScenario decodes and validates a JSON scenario.
var ParseScenario = scenario.Parse

// WarmStore is the content-addressed warm-state store: frozen encoding
// bases and per-switch verdicts persisted under deployment fingerprints,
// written by the Session run that produced them and restored by a
// Session's first run of the deployment (AnalyzerOptions.WarmStore). It
// holds one deployment: a save removes every other deployment's files.
type WarmStore = store.Store

// OpenWarmStore opens (creating if needed) a warm-state store directory.
var OpenWarmStore = store.Open

// CorrelationReport ranks physical root causes for a hypothesis.
type CorrelationReport = correlate.Report
