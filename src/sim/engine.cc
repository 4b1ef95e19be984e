#include "sim/engine.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dcrd/dcrd_router.h"
#include "event/scheduler.h"
#include "graph/io.h"
#include "graph/topology.h"
#include "net/link_monitor.h"
#include "net/overlay_network.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "pubsub/publisher.h"
#include "routing/multipath_router.h"
#include "routing/oracle_router.h"
#include "routing/tree_router.h"
#include "sim/invariant_checker.h"
#include "sim/workload.h"

namespace dcrd {

std::unique_ptr<Router> MakeRouter(const ScenarioConfig& config,
                                   RouterContext context) {
  switch (config.router) {
    case RouterKind::kDcrd: {
      DcrdConfig dcrd_config;
      dcrd_config.best_effort_fallback = config.dcrd_best_effort_fallback;
      dcrd_config.reroute_retry_cap = config.dcrd_reroute_retry_cap;
      dcrd_config.enable_persistence = config.dcrd_persistence;
      dcrd_config.persistence_retry_interval = config.dcrd_persistence_retry;
      dcrd_config.persistence_max_retries =
          config.dcrd_persistence_max_retries;
      dcrd_config.computation.ordering = config.dcrd_ordering;
      dcrd_config.use_distributed_computation = config.dcrd_distributed;
      return std::make_unique<DcrdRouter>(context, dcrd_config);
    }
    case RouterKind::kRTree:
      return std::make_unique<TreeRouter>(context, TreeKind::kShortestHop);
    case RouterKind::kDTree:
      return std::make_unique<TreeRouter>(context, TreeKind::kShortestDelay);
    case RouterKind::kOracle:
      return std::make_unique<OracleRouter>(context);
    case RouterKind::kMultipath:
      return std::make_unique<MultipathRouter>(context,
                                               config.multipath_path_count);
  }
  DCRD_CHECK(false) << "unknown router kind";
  return nullptr;
}

namespace {

// Delivery-sink shim: records a kDeliver trace event and the end-to-end
// delay histogram sample, then forwards to the real sink (the invariant
// checker or the metrics collector). Pure read-side — it cannot change what
// the wrapped sink observes.
class ObservedSink final : public DeliverySink {
 public:
  ObservedSink(DeliverySink& next, FlightRecorder* recorder,
               LogLinearHistogram* delay_histogram)
      : next_(next), recorder_(recorder), delay_histogram_(delay_histogram) {}

  void OnDelivered(const Message& message, NodeId subscriber,
                   SimTime arrival) override {
    if (recorder_ != nullptr) {
      recorder_->Record(TraceEventKind::kDeliver, message.id.value, 0,
                        subscriber, message.publisher, LinkId());
    }
    if (delay_histogram_ != nullptr) {
      delay_histogram_->Record((arrival - message.publish_time).micros());
    }
    next_.OnDelivered(message, subscriber, arrival);
  }

 private:
  DeliverySink& next_;
  FlightRecorder* recorder_;
  LogLinearHistogram* delay_histogram_;
};

// Samples every link's up/gray state at failure-epoch cadence and records
// the *transitions* as trace events. The failure and gray processes are
// counter-based pure functions of (seed, entity, epoch) — sampling them is
// free of side effects, so the traced run stays bit-identical to the
// untraced one. Chain-scheduled with a [this] capture (8 bytes, well inside
// the scheduler's inline budget).
class LinkStateSampler {
 public:
  LinkStateSampler(const OverlayNetwork& network, Scheduler& scheduler,
                   FlightRecorder& recorder, SimDuration epoch, SimTime end)
      : network_(network),
        scheduler_(scheduler),
        recorder_(recorder),
        epoch_(epoch),
        end_(end),
        link_up_(network.graph().edge_count(), true),
        link_gray_(network.graph().edge_count(), false) {
    Sample();  // t = 0 baseline; records nothing unless a link starts down
    ScheduleNext();
  }

 private:
  void Sample() {
    const SimTime now = scheduler_.now();
    const Graph& graph = network_.graph();
    for (std::size_t i = 0; i < graph.edge_count(); ++i) {
      const LinkId link(static_cast<LinkId::underlying_type>(i));
      const EdgeSpec& edge = graph.edge(link);
      const bool up = network_.failures().IsUp(link, now);
      if (up != link_up_[i]) {
        link_up_[i] = up;
        recorder_.Record(up ? TraceEventKind::kLinkUp
                            : TraceEventKind::kLinkDown,
                         TraceRecord::kNoPacket, 0, edge.a, edge.b, link);
      }
      const bool gray = network_.gray().Active(link, now);
      if (gray != link_gray_[i]) {
        link_gray_[i] = gray;
        recorder_.Record(gray ? TraceEventKind::kGrayStart
                              : TraceEventKind::kGrayEnd,
                         TraceRecord::kNoPacket, 0, edge.a, edge.b, link);
      }
    }
  }

  void ScheduleNext() {
    if (scheduler_.now() + epoch_ > end_) return;
    scheduler_.ScheduleAfter(epoch_, [this] {
      Sample();
      ScheduleNext();
    });
  }

  const OverlayNetwork& network_;
  Scheduler& scheduler_;
  FlightRecorder& recorder_;
  const SimDuration epoch_;
  const SimTime end_;
  std::vector<bool> link_up_;
  std::vector<bool> link_gray_;
};

// Registers the network's per-class TrafficCounters fields under
// "net.<class>.<field>" names. By const pointer: the network stays the
// single source of truth, the registry only reads at snapshot time.
void RegisterNetworkCounters(MetricsRegistry& registry,
                             const OverlayNetwork& network) {
  static constexpr std::string_view kClassNames[] = {"data", "ack",
                                                     "control"};
  for (std::size_t c = 0; c < 3; ++c) {
    const TrafficCounters& counters =
        network.counters(static_cast<TrafficClass>(c));
    const std::string prefix = "net." + std::string(kClassNames[c]) + ".";
    registry.RegisterCounter(prefix + "attempted", &counters.attempted);
    registry.RegisterCounter(prefix + "delivered", &counters.delivered);
    registry.RegisterCounter(prefix + "dropped_link_failure",
                             &counters.dropped_failure);
    registry.RegisterCounter(prefix + "dropped_node_failure",
                             &counters.dropped_node_failure);
    registry.RegisterCounter(prefix + "dropped_loss", &counters.dropped_loss);
    registry.RegisterCounter(prefix + "dropped_gray", &counters.dropped_gray);
    registry.RegisterCounter(prefix + "dropped_crash",
                             &counters.dropped_crash);
  }
}

// Samples every broker's crash-schedule state at failure-epoch cadence and
// drives the router's lifecycle hooks on transitions: up->down kills the
// broker's volatile state (OnBrokerCrash), down->up triggers resync
// (OnBrokerRestart). Unlike LinkStateSampler this is NOT observability —
// the hooks mutate protocol state — so it runs whenever the crash process
// is enabled, recorder or not. The schedule itself is a counter-based pure
// function, so the sampler adds no RNG draws.
class BrokerLifecycleSampler {
 public:
  BrokerLifecycleSampler(const OverlayNetwork& network, Scheduler& scheduler,
                         Router& router, FlightRecorder* recorder,
                         SimDuration epoch, SimTime end)
      : network_(network),
        scheduler_(scheduler),
        router_(router),
        recorder_(recorder),
        epoch_(epoch),
        end_(end),
        up_(network.graph().node_count(), true) {
    Sample();  // t = 0 baseline; fires hooks for brokers that start down
    ScheduleNext();
  }

  [[nodiscard]] std::uint64_t crashes() const { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

 private:
  void Sample() {
    const SimTime now = scheduler_.now();
    const BrokerCrashSchedule& schedule = network_.crashes();
    for (std::size_t i = 0; i < up_.size(); ++i) {
      const NodeId node(static_cast<NodeId::underlying_type>(i));
      const bool up = schedule.Up(node, now);
      if (up == up_[i]) continue;
      up_[i] = up;
      if (!up) {
        ++crashes_;
        const std::size_t killed = router_.OnBrokerCrash(node);
        if (recorder_ != nullptr) {
          recorder_->Record(TraceEventKind::kBrokerDown,
                            TraceRecord::kNoPacket, 0, node, NodeId(),
                            LinkId(), 0,
                            static_cast<std::uint16_t>(
                                killed > 0xFFFF ? 0xFFFF : killed));
        }
      } else {
        ++restarts_;
        router_.OnBrokerRestart(node);
        if (recorder_ != nullptr) {
          recorder_->Record(TraceEventKind::kBrokerUp, TraceRecord::kNoPacket,
                            0, node, NodeId(), LinkId());
        }
      }
    }
  }

  void ScheduleNext() {
    if (scheduler_.now() + epoch_ > end_) return;
    scheduler_.ScheduleAfter(epoch_, [this] {
      Sample();
      ScheduleNext();
    });
  }

  const OverlayNetwork& network_;
  Scheduler& scheduler_;
  Router& router_;
  FlightRecorder* recorder_;
  const SimDuration epoch_;
  const SimTime end_;
  std::vector<bool> up_;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
};

// One scenario's complete simulation state — workload, scheduler, network,
// monitor, router, metrics — built from (config, graph). The setup order
// below fixes the engine-origin event keys, so it is part of the sample
// path: reordering it changes results.
class Sim {
 public:
  Sim(const ScenarioConfig& config, const Graph& graph);
  Sim(const Sim&) = delete;
  Sim& operator=(const Sim&) = delete;

  // Runs to the end wall, drains, checks, flushes observability and
  // summarizes.
  RunSummary Run();

 private:
  void OnPublish(const Message& message);
  void EpochTick();
  RunSummary Summarize() const;

  static SubscriptionTable MakeWorkload(const Graph& graph,
                                        const ScenarioConfig& config,
                                        const Rng& root) {
    Rng workload_rng = root.Fork("workload");
    return GenerateWorkload(graph, config, workload_rng);
  }
  static FailureSchedule MakeFailures(const Graph& graph,
                                      const ScenarioConfig& config,
                                      const Rng& root) {
    Rng link_pf_rng = root.Fork("link-pf");
    return FailureSchedule(
        root.Fork("failures")(),
        DrawHeterogeneousFractions(graph.edge_count(),
                                   config.failure_probability,
                                   config.failure_heterogeneity, link_pf_rng),
        config.failure_epoch, config.link_outage_epochs);
  }
  static GrayFailureSchedule MakeGray(const ScenarioConfig& config,
                                      const Rng& root) {
    GrayFailureConfig gray_config;
    gray_config.probability = config.gray_probability;
    gray_config.extra_loss = config.gray_extra_loss;
    gray_config.delay_factor = config.gray_delay_factor;
    gray_config.asymmetry = config.gray_asymmetry;
    gray_config.epoch = config.failure_epoch;
    return GrayFailureSchedule(root.Fork("gray")(), gray_config);
  }
  static OverlayNetworkConfig MakeNetworkConfig(const ScenarioConfig& config) {
    OverlayNetworkConfig network_config;
    network_config.loss_rate = config.loss_rate;
    network_config.ack_delay_factor = config.ack_delay_factor;
    network_config.serialization = config.link_serialization;
    network_config.delay_jitter = config.delay_jitter;
    return network_config;
  }
  static LinkMonitorConfig MakeMonitorConfig(const ScenarioConfig& config) {
    LinkMonitorConfig monitor_config;
    monitor_config.interval = config.monitor_interval;
    monitor_config.probe_count = config.monitor_probes;
    monitor_config.ewma_weight = config.monitor_ewma_weight;
    monitor_config.loss_rate = config.loss_rate;
    return monitor_config;
  }

  const ScenarioConfig& config_;
  const Graph& graph_;
  const Rng root_;
  SubscriptionTable subscriptions_;
  Scheduler scheduler_;
  const FailureSchedule failures_;
  const NodeFailureSchedule node_failures_;
  const GrayFailureSchedule gray_;
  // Crash schedule on its own substream: enabling it never perturbs the
  // failure/loss/gray sample paths (and vice versa).
  const BrokerCrashSchedule crashes_;
  OverlayNetwork network_;
  // Observability (read-only; see the ScenarioConfig block comment).
  std::unique_ptr<FlightRecorder> recorder_;
  std::ofstream trace_file_;
  std::ofstream audit_file_;
  std::unique_ptr<MetricsRegistry> registry_;
  LogLinearHistogram* delay_histogram_ = nullptr;
  LogLinearHistogram* rtt_histogram_ = nullptr;
  LinkMonitor monitor_;
  MetricsCollector metrics_;
  std::unique_ptr<SimInvariantChecker> checker_;
  std::unique_ptr<ObservedSink> observed_sink_;
  std::unique_ptr<Router> router_;
  const DcrdRouter* audit_router_ = nullptr;
  Rng churn_rng_;
  std::unique_ptr<LinkStateSampler> link_sampler_;
  std::unique_ptr<BrokerLifecycleSampler> lifecycle_sampler_;
  std::unique_ptr<TimeSeriesSampler> timeseries_;
  std::uint64_t next_message_id_ = 0;
  std::vector<std::unique_ptr<Publisher>> publishers_;
  const SimTime end_;
};

Sim::Sim(const ScenarioConfig& config, const Graph& graph)
    : config_(config),
      graph_(graph),
      root_(config.seed),
      subscriptions_(MakeWorkload(graph, config, root_)),
      failures_(MakeFailures(graph, config, root_)),
      node_failures_(root_.Fork("node-failures")(),
                     config.node_failure_probability, config.failure_epoch,
                     config.node_outage_epochs),
      gray_(MakeGray(config, root_)),
      crashes_(root_.Fork("broker-crashes")(), config.broker_mtbf,
               config.broker_mttr, config.failure_epoch),
      network_(graph, scheduler_, failures_, MakeNetworkConfig(config),
               root_.Fork("loss"), node_failures_, gray_, crashes_),
      monitor_(graph, failures_, MakeMonitorConfig(config),
               root_.Fork("probes")),
      metrics_(subscriptions_),
      churn_rng_(root_.Fork("churn")),
      end_(SimTime::Zero() + config.sim_time) {
  // --- observability (read-only; see the ScenarioConfig block comment) ----
  const bool tracing = config_.trace || !config_.trace_out.empty();
  if (tracing) {
    FlightRecorder::Config recorder_config;
    recorder_config.ring_capacity = config_.trace_ring_capacity;
    recorder_ = std::make_unique<FlightRecorder>(scheduler_, recorder_config);
    recorder_->set_enabled(true);
    if (!config_.trace_out.empty()) {
      trace_file_.open(config_.trace_out, std::ios::trunc);
      if (trace_file_) {
        recorder_->set_sink(&trace_file_);
      } else {
        DCRD_LOG(kWarn) << "cannot write trace to " << config_.trace_out
                        << "; tracing to the in-memory ring only";
      }
    }
    network_.set_flight_recorder(recorder_.get());
  }
  if (!config_.delay_audit_out.empty()) {
    audit_file_.open(config_.delay_audit_out, std::ios::trunc);
    if (!audit_file_) {
      DCRD_LOG(kWarn) << "cannot write delay-audit model rows to "
                      << config_.delay_audit_out;
    }
  }
  if (!config_.metrics_json.empty() || !config_.timeseries_out.empty()) {
    registry_ = std::make_unique<MetricsRegistry>();
    RegisterNetworkCounters(*registry_, network_);
    // SLO pair counters, read live from the collector's tally.
    const RunSummary& live = metrics_.live_summary();
    registry_->RegisterCounter("slo.messages_published",
                               &live.messages_published);
    registry_->RegisterCounter("slo.pairs_published", &live.expected_pairs);
    registry_->RegisterCounter("slo.pairs_delivered", &live.delivered_pairs);
    registry_->RegisterCounter("slo.pairs_on_time", &live.qos_pairs);
    delay_histogram_ = registry_->AddHistogram("delivery.delay_us");
    rtt_histogram_ = registry_->AddHistogram("transport.rtt_us");
  }

  if (config_.enable_invariant_checker) {
    InvariantCheckerConfig checker_config;
    checker_config.check_delivery_guarantee = config_.check_delivery_guarantee;
    checker_config.guarantee_window = config_.guarantee_window;
    checker_ = std::make_unique<SimInvariantChecker>(
        network_, subscriptions_, metrics_, checker_config);
    checker_->set_flight_recorder(recorder_.get());
  }
  DeliverySink& protocol_sink =
      checker_ ? static_cast<DeliverySink&>(*checker_) : metrics_;
  observed_sink_ = std::make_unique<ObservedSink>(protocol_sink,
                                                  recorder_.get(),
                                                  delay_histogram_);
  const bool observing = recorder_ != nullptr || registry_ != nullptr;

  RouterContext context;
  context.network = &network_;
  context.subscriptions = &subscriptions_;
  context.sink = observing ? static_cast<DeliverySink*>(observed_sink_.get())
                           : &protocol_sink;
  context.max_transmissions = config_.max_transmissions;
  context.ack_slack = config_.ack_slack;
  context.adaptive_rto = config_.adaptive_rto;
  context.peer_death = config_.peer_death_detection;
  context.peer_death_threshold = config_.peer_death_threshold;
  context.transport_observer = checker_.get();
  context.recorder = recorder_.get();
  context.hop_rtt_histogram = rtt_histogram_;
  router_ = MakeRouter(config_, context);
  // The delay auditor needs the model's sending lists, which only the DCRD
  // router materialises. Pure read-side: snapshots go to the audit file
  // only, after each rebuild, so routing never observes the auditor.
  if (audit_file_.is_open()) {
    audit_router_ = dynamic_cast<const DcrdRouter*>(router_.get());
    if (audit_router_ == nullptr) {
      DCRD_LOG(kWarn) << "delay_audit_out requested but router "
                      << router_->name()
                      << " has no Theorem-1 model; no rows written";
    }
  }

  if (registry_ != nullptr) {
    // Gauges sample live engine state; registered after the router exists.
    registry_->RegisterGauge("router.open_episodes", [r = router_.get()] {
      return static_cast<std::uint64_t>(r->open_episodes());
    });
    registry_->RegisterGauge("transport.pending_copies", [r = router_.get()] {
      return static_cast<std::uint64_t>(r->transport_stats().pending_copies);
    });
    registry_->RegisterGauge("links.down", [this] {
      std::uint64_t down = 0;
      const SimTime now = scheduler_.now();
      for (std::size_t i = 0; i < graph_.edge_count(); ++i) {
        const LinkId link(static_cast<LinkId::underlying_type>(i));
        if (!network_.failures().IsUp(link, now)) ++down;
      }
      return down;
    });
    registry_->RegisterGauge("links.gray", [this] {
      std::uint64_t gray = 0;
      const SimTime now = scheduler_.now();
      for (std::size_t i = 0; i < graph_.edge_count(); ++i) {
        const LinkId link(static_cast<LinkId::underlying_type>(i));
        if (network_.gray().Active(link, now)) ++gray;
      }
      return gray;
    });
  }

  // Bootstrap measurement + epoch rebuilds for the whole run. Churn, when
  // enabled, mutates the subscription table immediately before the rebuild
  // so routers always see a consistent epoch snapshot.
  monitor_.MeasureAt(SimTime::Zero());
  router_->Rebuild(monitor_.view());
  for (SimTime epoch = SimTime::Zero() + config_.monitor_interval;
       epoch <= end_; epoch += config_.monitor_interval) {
    scheduler_.ScheduleAt(epoch, [this] { EpochTick(); });
  }
  if (observing || audit_router_ != nullptr) {
    // Observability epochs ride their own events rather than widening the
    // rebuild event. Scheduled after the rebuild loop, so at each epoch
    // instant they run *after* the rebuild (same time, later seq) and the
    // kRebuild record / snapshot / audit rows reflect the post-rebuild
    // state.
    if (recorder_ != nullptr) {
      recorder_->Record(TraceEventKind::kRebuild, TraceRecord::kNoPacket, 0,
                        NodeId(), NodeId(), LinkId());
    }
    if (registry_ != nullptr) registry_->SnapshotEpoch(SimTime::Zero());
    if (audit_router_ != nullptr) {
      audit_router_->WriteAuditSnapshot(audit_file_, SimTime::Zero());
    }
    for (SimTime epoch = SimTime::Zero() + config_.monitor_interval;
         epoch <= end_; epoch += config_.monitor_interval) {
      scheduler_.ScheduleAt(epoch, [this] {
        if (recorder_ != nullptr) {
          recorder_->Record(TraceEventKind::kRebuild, TraceRecord::kNoPacket,
                            0, NodeId(), NodeId(), LinkId());
        }
        if (registry_ != nullptr) registry_->SnapshotEpoch(scheduler_.now());
        if (audit_router_ != nullptr) {
          audit_router_->WriteAuditSnapshot(audit_file_, scheduler_.now());
        }
      });
    }
  }
  if (recorder_ != nullptr) {
    link_sampler_ = std::make_unique<LinkStateSampler>(
        network_, scheduler_, *recorder_, config_.failure_epoch, end_);
  }
  if (network_.crashes().enabled()) {
    lifecycle_sampler_ = std::make_unique<BrokerLifecycleSampler>(
        network_, scheduler_, *router_, recorder_.get(),
        config_.failure_epoch, end_);
  }
  if (!config_.timeseries_out.empty()) {
    // Strictly read-only, so enabling it never changes results.
    TimeSeriesConfig ts_config;
    ts_config.interval = config_.timeseries_interval;
    ts_config.end = end_;
    ts_config.node_count = graph_.node_count();
    timeseries_ = std::make_unique<TimeSeriesSampler>(
        *registry_, scheduler_, ts_config,
        [this](std::vector<BrokerHealth>& out) {
          router_->SampleBrokerHealth(out);
        });
  }

  // Publishers: one per topic, phase-jittered within the first interval.
  Rng phase_rng = root_.Fork("phases");
  for (std::size_t t = 0; t < subscriptions_.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    publishers_.push_back(std::make_unique<Publisher>(
        topic, subscriptions_.publisher(topic), config_.publish_interval,
        scheduler_, [this](const Message& message) { OnPublish(message); }));
    publishers_.back()->Start(
        SimDuration::Micros(phase_rng.NextInRange(
            0, config_.publish_interval.micros() - 1)),
        end_, next_message_id_);
  }
}

void Sim::OnPublish(const Message& message) {
  // A crashed broker cannot publish; its producer pauses and the message
  // never enters the system (not counted as an expected pair). No-op — and
  // byte-identical — when the crash process is off.
  if (network_.crashes().enabled() &&
      !network_.crashes().Up(message.publisher, network_.scheduler().now())) {
    return;
  }
  // aux16 carries the topic id so offline analysis can join a packet to
  // its (topic, subscriber) model row.
  if (recorder_ != nullptr) {
    recorder_->Record(TraceEventKind::kPublish, message.id.value, 0,
                      message.publisher, NodeId(), LinkId(), 0,
                      static_cast<std::uint16_t>(message.topic.underlying()));
  }
  metrics_.OnPublished(message);
  if (checker_) checker_->OnPublished(message);
  router_->Publish(message);
}

void Sim::EpochTick() {
  if (checker_) checker_->CheckEpoch();
  if (config_.subscription_churn > 0.0) {
    ApplySubscriptionChurn(graph_, config_, churn_rng_, subscriptions_);
  }
  monitor_.MeasureAt(scheduler_.now());
  router_->Rebuild(monitor_.view());
}

// Opens `path` and writes the document; degrades to a warning (never an
// error — observability must not fail a run) when the file cannot open.
void WriteMetricsFile(const std::string& path, const MetricsDoc& doc) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    DCRD_LOG(kWarn) << "cannot write metrics to " << path;
    return;
  }
  WriteMetricsJson(file, doc);
}

void WriteTimeSeriesFile(const std::string& path,
                         const TimeSeriesStore& store) {
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    DCRD_LOG(kWarn) << "cannot write time series to " << path;
    return;
  }
  WriteTimeSeriesJson(file, store);
}

RunSummary Sim::Run() {
  try {
    scheduler_.RunUntil(end_);
    // Drain in-flight deliveries, timers and reroutes published before
    // `end`.
    scheduler_.Run();
    if (checker_) checker_->CheckEndOfRun(*router_, scheduler_.now());
  } catch (...) {
    // A throwing cell is exactly when the last events matter most; dump the
    // ring before the exception unwinds the engine state it describes.
    if (recorder_ != nullptr) {
      recorder_->DumpPostmortem(std::cerr, 256, "exception during run");
    }
    throw;
  }

  if (registry_ != nullptr) {
    registry_->SnapshotEpoch(scheduler_.now());
    if (!config_.metrics_json.empty()) {
      WriteMetricsFile(config_.metrics_json, registry_->Collect());
    }
  }
  if (timeseries_ != nullptr) {
    timeseries_->FinalizeAt(scheduler_.now());
    WriteTimeSeriesFile(config_.timeseries_out, timeseries_->store());
  }
  if (recorder_ != nullptr) recorder_->Flush();
  return Summarize();
}

RunSummary Sim::Summarize() const {
  const TrafficCounters& data = network_.counters(TrafficClass::kData);
  const TrafficCounters& ack = network_.counters(TrafficClass::kAck);
  const TrafficCounters& control = network_.counters(TrafficClass::kControl);
  RunSummary summary =
      metrics_.Summarize(data.attempted, ack.attempted, control.attempted);
  const TransportStats transport = router_->transport_stats();
  summary.retransmissions = transport.retransmissions;
  summary.spurious_retransmissions = transport.spurious_retransmissions;
  summary.rtt_samples = transport.rtt_samples;
  summary.peer_deaths = transport.peer_deaths;
  summary.peer_probes = transport.peer_probes;
  summary.peer_revivals = transport.peer_revivals;
  summary.crash_copies_killed = transport.crash_copies_killed;
  summary.dropped_crash =
      data.dropped_crash + ack.dropped_crash + control.dropped_crash;
  if (lifecycle_sampler_ != nullptr) {
    summary.broker_crashes = lifecycle_sampler_->crashes();
    summary.broker_restarts = lifecycle_sampler_->restarts();
  }
  const ResyncStats resync = router_->resync_stats();
  summary.resyncs_started = resync.resyncs_started;
  summary.resyncs_completed = resync.resyncs_completed;
  summary.total_resync_time_us =
      static_cast<std::uint64_t>(resync.total_resync_time.micros());
  summary.max_resync_time_us =
      static_cast<std::uint64_t>(resync.max_resync_time.micros());
  if (recorder_ != nullptr) {
    summary.trace_records_overwritten = recorder_->overwritten();
    if (recorder_->overwritten() > 0 && !config_.trace_out.empty()) {
      // A sink-mode trace should be lossless; overwrites here mean the sink
      // failed to open and the capture silently degraded to the ring.
      DCRD_LOG(kWarn) << "flight recorder overwrote "
                      << recorder_->overwritten()
                      << " record(s); the captured trace is lossy";
    }
  }
  if (checker_) {
    summary.invariant_violation_count = checker_->violation_count();
    summary.invariant_violations = checker_->violations();
    summary.crash_excused_duplicates = checker_->crash_excused_duplicates();
  }
  // Sorted sample vectors: every consumer is order-insensitive (percentile
  // and CDF code sorts its own copy), and a canonical order lets callers —
  // perfbench's fidelity gate among them — compare summaries with plain
  // vector equality.
  std::sort(summary.delay_ms_samples.begin(), summary.delay_ms_samples.end());
  std::sort(summary.lateness_ratios.begin(), summary.lateness_ratios.end());
  return summary;
}

}  // namespace

RunSummary RunScenario(const ScenarioConfig& config) {
  const Rng root(config.seed);

  // Topology and workload draw from substreams independent of the failure
  // and loss processes, so changing Pf/Pl/router never reshapes the overlay.
  Rng topology_rng = root.Fork("topology");
  const DelayRange delays{config.link_delay_min, config.link_delay_max};
  const Graph graph = [&] {
    if (!config.topology_file.empty()) {
      std::ifstream file(config.topology_file);
      DCRD_CHECK(file.good())
          << "cannot open topology file " << config.topology_file;
      std::string error;
      auto loaded = ReadEdgeList(file, &error);
      DCRD_CHECK(loaded.has_value())
          << config.topology_file << ": " << error;
      return *std::move(loaded);
    }
    return config.topology == TopologyKind::kFullMesh
               ? FullMesh(config.node_count, topology_rng, delays)
               : RandomConnected(config.node_count, config.degree,
                                 topology_rng, delays);
  }();

  Sim sim(config, graph);
  return sim.Run();
}

}  // namespace dcrd
