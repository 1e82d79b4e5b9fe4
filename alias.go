package scout

// This file re-exports the domain types and constructors downstream users
// need to drive the pipeline, so the whole system is usable through the
// single public package while implementations stay in internal/. A name is
// here because a command, an example, the benchmark or the README uses it,
// or because an exported API of this package takes or returns its type;
// anything else is reached through the internal package that defines it.

import (
	"scout/internal/collect"
	"scout/internal/compile"
	"scout/internal/correlate"
	"scout/internal/fabric"
	"scout/internal/faultlog"
	"scout/internal/localize"
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
	// VRFRef names a VRF object.
	VRFRef = object.VRF
	// EPGRef names an endpoint-group object.
	EPGRef = object.EPG
	// ContractRef names a contract object.
	ContractRef = object.Contract
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
	// RuleKey is a rule's behavioural identity (match + action).
	RuleKey = rule.Key
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
	// EventStream is the append-only dataplane event stream collectors
	// and watch loops tail.
	EventStream = faultlog.EventLog
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

// Risk models and localization.
type (
	// RiskView is the read interface over an annotated risk model. A model
	// is immutable once built and failures are marked on a copy-on-write
	// overlay; the overlay and a model that folds it in read the same.
	RiskView = risk.View
	// RiskOverlay is a copy-on-write failure overlay over an immutable
	// pristine risk model.
	RiskOverlay = risk.Overlay
	// Deployment is the compiled per-switch logical rule set.
	Deployment = compile.Deployment
	// ChangeOracle answers "was this object recently changed?".
	ChangeOracle = localize.ChangeOracle
	// ChangeLogOracle adapts a controller change log as a ChangeOracle.
	ChangeLogOracle = localize.ChangeLogOracle
)

// Localize runs the SCOUT algorithm on an annotated risk model.
var Localize = localize.Scout

// Workload synthesis (the paper's §VI-A datasets).
type (
	// WorkloadSpec parameterizes synthetic policy generation.
	WorkloadSpec = workload.Spec
)

var (
	// GenerateWorkload synthesizes a policy and topology from a spec.
	GenerateWorkload = workload.Generate
	// ProductionWorkloadSpec mirrors the paper's production cluster.
	ProductionWorkloadSpec = workload.ProductionSpec
	// TestbedWorkloadSpec mirrors the paper's hardware testbed policy.
	TestbedWorkloadSpec = workload.TestbedSpec
	// SmallFabricWorkloadSpec is a small deployment with production-like
	// density (use instead of linearly shrinking the production spec).
	SmallFabricWorkloadSpec = workload.SmallFabricSpec
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
// bounds itself: each save keeps the four deployments used most recently
// and evicts the rest.
type WarmStore = store.Store

// OpenWarmStore opens (creating if needed) a warm-state store directory.
var OpenWarmStore = store.Open

// CorrelationReport ranks physical root causes for a hypothesis.
type CorrelationReport = correlate.Report
