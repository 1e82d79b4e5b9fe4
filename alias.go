package scout

// This file re-exports the domain types and constructors downstream users
// need to drive the pipeline, so the whole system is usable through the
// single public package while implementations stay in internal/.

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
	"scout/internal/tcam"
	"scout/internal/topo"
	"scout/internal/workload"
)

// Object identity.
type (
	// ObjectRef uniquely names a policy or physical object.
	ObjectRef = object.Ref
	// ObjectID is the numeric identity of an object within its kind.
	ObjectID = object.ID
	// ObjectKind enumerates object kinds (VRF, EPG, contract, filter,
	// switch).
	ObjectKind = object.Kind
)

// Object kinds.
const (
	KindVRF      = object.KindVRF
	KindEPG      = object.KindEPG
	KindContract = object.KindContract
	KindFilter   = object.KindFilter
	KindSwitch   = object.KindSwitch
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
	// SwitchRef names a physical switch.
	SwitchRef = object.Switch
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
	// Binding attaches a contract to an EPG pair.
	Binding = policy.Binding
	// EPGPair is an unordered pair of EPG IDs.
	EPGPair = policy.EPGPair
)

var (
	// NewPolicy returns an empty policy.
	NewPolicy = policy.New
	// PolicyFromJSON decodes and validates a serialized policy.
	PolicyFromJSON = policy.FromJSON
	// PortEntry builds a single-port allow filter entry.
	PortEntry = policy.PortEntry
	// MakeEPGPair canonicalizes an EPG pair.
	MakeEPGPair = policy.MakeEPGPair
)

// Rules.
type (
	// Rule is a prioritized access-control entry (logical or TCAM).
	Rule = rule.Rule
	// RuleMatch is the matching half of a rule.
	RuleMatch = rule.Match
	// RuleAction is allow or deny.
	RuleAction = rule.Action
	// RuleKey is a rule's behavioural identity (match + action).
	RuleKey = rule.Key
	// Protocol is an IP protocol number.
	Protocol = rule.Protocol
	// SwitchPair identifies an EPG pair deployed on a specific switch —
	// the per-switch key of a Deployment's PairRules index.
	SwitchPair = compile.SwitchPair
)

// Rule actions and common protocols.
const (
	Allow     = rule.Allow
	Deny      = rule.Deny
	ProtoAny  = rule.ProtoAny
	ProtoICMP = rule.ProtoICMP
	ProtoTCP  = rule.ProtoTCP
	ProtoUDP  = rule.ProtoUDP
)

// Topology.
type (
	// Topology is the leaf-switch attachment view.
	Topology = topo.Topology
)

var (
	// NewTopology creates a topology with the given switches.
	NewTopology = topo.New
	// TopologyFromPolicy derives the topology from endpoint placements.
	TopologyFromPolicy = topo.FromPolicy
)

// Fabric simulation.
type (
	// Fabric simulates controller, switch agents, and TCAMs.
	Fabric = fabric.Fabric
	// FabricOptions configures a fabric.
	FabricOptions = fabric.Options
	// CorruptionField selects the TCAM field a corruption event flips.
	CorruptionField = tcam.CorruptionField
)

// TCAM corruption fields.
const (
	CorruptVRF    = tcam.CorruptVRF
	CorruptSrcEPG = tcam.CorruptSrcEPG
	CorruptDstEPG = tcam.CorruptDstEPG
	CorruptPort   = tcam.CorruptPort
)

// NewFabric creates a deployment fabric for the policy and topology.
var NewFabric = fabric.New

// Dataplane classification.
type (
	// ClassifyPacket is one classification query against a TCAM — the
	// header tuple Classify takes, reified for batch classification.
	ClassifyPacket = tcam.Packet
	// ClassifyOutcome is the result of classifying one packet of a
	// batch (action + whether any rule matched).
	ClassifyOutcome = tcam.Outcome
)

// Logs.
type (
	// ChangeLog is the controller's policy change log.
	ChangeLog = faultlog.ChangeLog
	// FaultLog is the device fault log.
	FaultLog = faultlog.FaultLog
	// FaultCode identifies a physical fault class.
	FaultCode = faultlog.FaultCode
)

// Dataplane event streaming.
type (
	// Event is one switch-scoped dataplane event (TCAM change, link
	// transition, EPG placement change).
	Event = faultlog.Event
	// EventKind classifies a dataplane event.
	EventKind = faultlog.EventKind
	// EventStream is the append-only dataplane event stream collectors
	// and watch loops tail.
	EventStream = faultlog.EventLog
	// EventCursor is a stateful consumer position over an EventStream.
	EventCursor = faultlog.Cursor
	// EventQueue coalesces switch-scoped events into bounded batches
	// (per-switch dedupe, size/deadline cuts, overflow-to-coalesce).
	EventQueue = stream.Queue
	// EventQueueOptions configures an EventQueue.
	EventQueueOptions = stream.Options
	// EventQueueStats counts an EventQueue's coalescing behaviour.
	EventQueueStats = stream.Stats
	// EventBatch is one coalesced unit of refresh work cut from an
	// EventQueue, the input of Session.ApplyEvents.
	EventBatch = stream.Batch
)

// Event kinds.
const (
	EventTCAMChange = faultlog.EventTCAMChange
	EventLink       = faultlog.EventLink
	EventEPG        = faultlog.EventEPG
)

var (
	// NewEventStream returns an empty dataplane event stream (production
	// users feeding their own monitoring plane into a session).
	NewEventStream = faultlog.NewEventLog
	// NewEventQueue creates a coalescing event queue.
	NewEventQueue = stream.New
)

// Fault codes.
const (
	FaultTCAMOverflow      = faultlog.FaultTCAMOverflow
	FaultSwitchUnreachable = faultlog.FaultSwitchUnreachable
	FaultAgentCrash        = faultlog.FaultAgentCrash
	FaultControlChannel    = faultlog.FaultControlChannel
	FaultTCAMCorruption    = faultlog.FaultTCAMCorruption
)

// Risk models and localization.
type (
	// RiskModel is a bipartite shared-risk model.
	RiskModel = risk.Model
	// RiskView is the read interface over an annotated risk model; a
	// mutable model and a copy-on-write overlay are interchangeable
	// behind it.
	RiskView = risk.View
	// RiskMarker is a RiskView that accepts failure annotation.
	RiskMarker = risk.Marker
	// RiskOverlay is a copy-on-write failure overlay over an immutable
	// pristine risk model.
	RiskOverlay = risk.Overlay
	// ControllerModelOptions configures controller-model construction.
	ControllerModelOptions = risk.ControllerModelOptions
	// Deployment is the compiled per-switch logical rule set.
	Deployment = compile.Deployment
	// LocalizationResult is the output of SCOUT or SCORE.
	LocalizationResult = localize.Result
	// ChangeOracle answers "was this object recently changed?".
	ChangeOracle = localize.ChangeOracle
	// ChangeLogOracle adapts a controller change log as a ChangeOracle.
	ChangeLogOracle = localize.ChangeLogOracle
	// NoChanges is an oracle that never reports changes.
	NoChanges = localize.NoChanges
)

var (
	// BuildSwitchRiskModel builds the per-switch risk model.
	BuildSwitchRiskModel = risk.BuildSwitchModel
	// BuildControllerRiskModel builds the fabric-wide risk model.
	BuildControllerRiskModel = risk.BuildControllerModel
	// NewRiskOverlay stacks a fresh copy-on-write failure overlay on a
	// pristine risk model (which must not be mutated afterwards).
	NewRiskOverlay = risk.NewOverlay
	// WriteRiskDOT renders any risk view as a Graphviz digraph.
	WriteRiskDOT = risk.WriteDOT
	// AugmentSwitchRiskModel marks failures from missing rules in a
	// switch risk model.
	AugmentSwitchRiskModel = risk.AugmentSwitchModel
	// AugmentControllerRiskModel marks failures from a switch's missing
	// rules in the controller risk model.
	AugmentControllerRiskModel = risk.AugmentControllerModel
	// Localize runs the SCOUT algorithm on an annotated risk model.
	Localize = localize.Scout
	// LocalizeSCORE runs the SCORE baseline with a hit-ratio threshold.
	LocalizeSCORE = localize.Score
	// LocalizeMaxCoverage runs the unconstrained greedy set-cover
	// baseline (maximum recall, poor precision).
	LocalizeMaxCoverage = localize.MaxCoverage
)

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
)

// State collection.
type (
	// Collector snapshots fabric TCAM state into bounded epoch history.
	Collector = collect.Collector
	// Epoch is one immutable TCAM collection.
	Epoch = collect.Epoch
	// SwitchDelta is a per-switch rule difference between epochs.
	SwitchDelta = collect.SwitchDelta
	// CollectorStats counts a collector's full/partial snapshot work.
	CollectorStats = collect.Stats
)

var (
	// NewCollector creates a collector over a fabric.
	NewCollector = collect.New
	// DiffEpochs compares two epochs switch by switch.
	DiffEpochs = collect.Diff
	// DirtyEpochSwitches lists the switches whose rules differ between two
	// epochs.
	DirtyEpochSwitches = collect.DirtySwitches
)

// Scenario scripting.
type (
	// Scenario is a declarative, replayable fault scenario.
	Scenario = scenario.Scenario
	// ScenarioStep is one scenario action.
	ScenarioStep = scenario.Step
	// ScenarioResult summarizes a scenario run.
	ScenarioResult = scenario.Result
)

// ParseScenario decodes and validates a JSON scenario.
var ParseScenario = scenario.Parse

// Durable warm state (cross-restart BDD and verdict reuse).
type (
	// WarmStore is the content-addressed, write-behind warm-state store:
	// frozen encoding bases and per-switch verdicts persisted under
	// deployment fingerprints, restored by Sessions on construction
	// (AnalyzerOptions.WarmStore).
	WarmStore = store.Store
	// StoreVerdict is one persisted per-switch check verdict.
	StoreVerdict = store.Verdict
	// StoreGCStats summarizes one warm-store garbage-collection pass.
	StoreGCStats = store.GCStats
)

// OpenWarmStore opens (creating if needed) a warm-state store directory
// and starts its write-behind goroutine.
var OpenWarmStore = store.Open

// Correlation.
type (
	// CorrelationReport ranks physical root causes for a hypothesis.
	CorrelationReport = correlate.Report
	// FaultSignature describes a known physical fault class.
	FaultSignature = correlate.Signature
)

// DefaultFaultSignatures returns the built-in fault signatures.
var DefaultFaultSignatures = correlate.DefaultSignatures
