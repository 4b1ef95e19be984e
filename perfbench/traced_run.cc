#include "traced_run.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "dcrd/dcrd_router.h"
#include "event/scheduler.h"
#include "graph/topology.h"
#include "net/broker_lifecycle.h"
#include "net/failure_schedule.h"
#include "net/gray_failure.h"
#include "net/link_monitor.h"
#include "net/overlay_network.h"
#include "pubsub/publisher.h"
#include "sim/engine.h"
#include "sim/invariant_checker.h"
#include "sim/workload.h"

namespace dcrd::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// In-memory span log. Spans nest strictly (the simulator is single-
// threaded), so the open spans form a stack and each span's parent is the
// span below it.
class SpanLog {
 public:
  struct Span {
    Layer layer;
    std::int32_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  SpanLog() { spans_.reserve(std::size_t{1} << 16); }

  std::int32_t Open(Layer layer) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{layer, open_, NowNs(), 0});
    open_ = id;
    return id;
  }
  void Close(std::int32_t id) {
    DCRD_CHECK(id == open_) << "spans must close innermost first";
    spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
    open_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  // Folds the log into per-layer self time, longest span and call count.
  void Fold(TracedResult& out) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::int64_t duration = span.end_ns - span.start_ns;
      LayerTotals& totals = out.layers[static_cast<std::size_t>(span.layer)];
      totals.self_ns += duration - child_ns[i];
      totals.max_ns = std::max(totals.max_ns, duration);
      ++totals.calls;
      if (span.layer == Layer::kCell) out.wall_ns += duration;
    }
  }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

class Scope {
 public:
  Scope(SpanLog& log, Layer layer) : log_(log), id_(log.Open(layer)) {}
  ~Scope() { log_.Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  const std::int32_t id_;
};

// The engine's per-cell state, built member by member in the order
// sim/engine.cc builds it so every RNG substream and every scheduler
// sequence number lines up with RunScenario's.
class TracedSim {
 public:
  TracedSim(const ScenarioConfig& config, const Graph& graph,
            SpanLog& log, TracedResult& out);
  TracedSim(const TracedSim&) = delete;
  TracedSim& operator=(const TracedSim&) = delete;

  void Run();

 private:
  static SubscriptionTable MakeWorkload(const Graph& graph,
                                        const ScenarioConfig& config,
                                        const Rng& root, SpanLog& log) {
    Scope scope(log, Layer::kWorkload);
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

  void Measure();
  void RebuildRouter();
  void ReadHealth();
  void OnPublish(const Message& message);
  void EpochTick();
  void SampleLifecycle();
  void ScheduleLifecycle();
  [[nodiscard]] Layer CrashLayer() const {
    return dcrd_ != nullptr ? Layer::kDcrdCrash : Layer::kRoutingCrash;
  }

  const ScenarioConfig& config_;
  const Graph& graph_;
  SpanLog& log_;
  TracedResult& out_;
  const Rng root_;
  SubscriptionTable subscriptions_;
  Scheduler scheduler_;
  const FailureSchedule failures_;
  const NodeFailureSchedule node_failures_;
  const GrayFailureSchedule gray_;
  const BrokerCrashSchedule crashes_;
  OverlayNetwork network_;
  LinkMonitor monitor_;
  MetricsCollector metrics_;
  std::unique_ptr<SimInvariantChecker> checker_;
  std::unique_ptr<Router> router_;
  const DcrdRouter* dcrd_ = nullptr;
  Rng churn_rng_;
  // The broker crash-lifecycle sampler, local to the benchmark: the same
  // failure-epoch cadence and transition rule as the engine's.
  std::vector<bool> broker_up_;
  std::uint64_t broker_crashes_ = 0;
  std::uint64_t broker_restarts_ = 0;
  std::uint64_t next_message_id_ = 0;
  std::vector<std::unique_ptr<Publisher>> publishers_;
  const SimTime end_;
};

TracedSim::TracedSim(const ScenarioConfig& config, const Graph& graph,
                     SpanLog& log, TracedResult& out)
    : config_(config),
      graph_(graph),
      log_(log),
      out_(out),
      root_(config.seed),
      subscriptions_(MakeWorkload(graph, config, root_, log)),
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
  if (config_.enable_invariant_checker) {
    InvariantCheckerConfig checker_config;
    checker_config.check_delivery_guarantee = config_.check_delivery_guarantee;
    checker_config.guarantee_window = config_.guarantee_window;
    checker_ = std::make_unique<SimInvariantChecker>(
        network_, subscriptions_, metrics_, checker_config);
  }
  RouterContext context;
  context.network = &network_;
  context.subscriptions = &subscriptions_;
  context.sink = checker_ ? static_cast<DeliverySink*>(checker_.get())
                          : static_cast<DeliverySink*>(&metrics_);
  context.max_transmissions = config_.max_transmissions;
  context.ack_slack = config_.ack_slack;
  context.adaptive_rto = config_.adaptive_rto;
  context.peer_death = config_.peer_death_detection;
  context.peer_death_threshold = config_.peer_death_threshold;
  context.transport_observer = checker_.get();
  router_ = MakeRouter(config_, context);
  if (config_.router == RouterKind::kDcrd && !config_.dcrd_distributed) {
    dcrd_ = dynamic_cast<const DcrdRouter*>(router_.get());
  }

  Measure();
  RebuildRouter();
  for (SimTime epoch = SimTime::Zero() + config_.monitor_interval;
       epoch <= end_; epoch += config_.monitor_interval) {
    scheduler_.ScheduleAt(epoch, [this] { EpochTick(); });
  }
  if (network_.crashes().enabled()) {
    broker_up_.assign(graph_.node_count(), true);
    SampleLifecycle();
    ScheduleLifecycle();
  }

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

void TracedSim::Measure() {
  Scope scope(log_, Layer::kMonitor);
  monitor_.MeasureAt(scheduler_.now());
}

void TracedSim::RebuildRouter() {
  {
    Scope scope(log_, dcrd_ != nullptr ? Layer::kDcrdRebuild
                                       : Layer::kRoutingRebuild);
    router_->Rebuild(monitor_.view());
  }
  if (dcrd_ != nullptr) ReadHealth();
}

void TracedSim::ReadHealth() {
  Scope scope(log_, Layer::kHealth);
  ControlPlaneHealth& health = out_.health;
  std::uint64_t entries = 0;
  for (std::size_t t = 0; t < subscriptions_.topic_count(); ++t) {
    const TopicId topic(static_cast<TopicId::underlying_type>(t));
    for (const Subscription& sub : subscriptions_.subscriptions(topic)) {
      const DestinationTables& tables = dcrd_->TablesFor(topic, sub.subscriber);
      ++health.destinations;
      health.sweeps_total += static_cast<std::uint64_t>(tables.sweeps_used);
      health.sweeps_max = std::max(health.sweeps_max, tables.sweeps_used);
      if (!tables.converged) ++health.unconverged;
      for (const NodeTables& node : tables.per_node) {
        entries += node.primary.size() + node.fallback.size();
      }
    }
  }
  health.table_entries_max = std::max(health.table_entries_max, entries);
}

void TracedSim::OnPublish(const Message& message) {
  if (network_.crashes().enabled() &&
      !network_.crashes().Up(message.publisher, scheduler_.now())) {
    return;
  }
  metrics_.OnPublished(message);
  if (checker_) checker_->OnPublished(message);
  Scope scope(log_, Layer::kPublish);
  router_->Publish(message);
}

void TracedSim::EpochTick() {
  if (checker_) {
    Scope scope(log_, Layer::kChecker);
    checker_->CheckEpoch();
  }
  if (config_.subscription_churn > 0.0) {
    Scope scope(log_, Layer::kWorkload);
    ApplySubscriptionChurn(graph_, config_, churn_rng_, subscriptions_);
  }
  Measure();
  RebuildRouter();
}

void TracedSim::SampleLifecycle() {
  const SimTime now = scheduler_.now();
  const BrokerCrashSchedule& schedule = network_.crashes();
  for (std::size_t i = 0; i < broker_up_.size(); ++i) {
    const NodeId node(static_cast<NodeId::underlying_type>(i));
    const bool up = schedule.Up(node, now);
    if (up == broker_up_[i]) continue;
    broker_up_[i] = up;
    Scope scope(log_, CrashLayer());
    if (!up) {
      ++broker_crashes_;
      router_->OnBrokerCrash(node);
    } else {
      ++broker_restarts_;
      router_->OnBrokerRestart(node);
    }
  }
}

void TracedSim::ScheduleLifecycle() {
  if (scheduler_.now() + config_.failure_epoch > end_) return;
  scheduler_.ScheduleAfter(config_.failure_epoch, [this] {
    SampleLifecycle();
    ScheduleLifecycle();
  });
}

void TracedSim::Run() {
  {
    Scope scope(log_, Layer::kLoop);
    scheduler_.RunUntil(end_);
    scheduler_.Run();
  }
  Scope finish(log_, Layer::kFinish);
  if (checker_) {
    Scope scope(log_, Layer::kChecker);
    checker_->CheckEndOfRun(*router_, scheduler_.now());
  }

  // The single-shard half of the engine's summary merge.
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
  summary.broker_crashes = broker_crashes_;
  summary.broker_restarts = broker_restarts_;
  const ResyncStats resync = router_->resync_stats();
  summary.resyncs_started = resync.resyncs_started;
  summary.resyncs_completed = resync.resyncs_completed;
  summary.total_resync_time_us =
      static_cast<std::uint64_t>(resync.total_resync_time.micros());
  summary.max_resync_time_us =
      static_cast<std::uint64_t>(resync.max_resync_time.micros());
  if (checker_) {
    summary.invariant_violation_count = checker_->violation_count();
    summary.invariant_violations = checker_->violations();
    summary.crash_excused_duplicates = checker_->crash_excused_duplicates();
  }
  std::sort(summary.delay_ms_samples.begin(), summary.delay_ms_samples.end());
  std::sort(summary.lateness_ratios.begin(), summary.lateness_ratios.end());

  out_.summary = std::move(summary);
  out_.events = scheduler_.events_executed();
  out_.data_attempted = data.attempted;
  out_.data_delivered = data.delivered;
  out_.ack_attempted = ack.attempted;
}

Graph MakeTopology(const ScenarioConfig& config) {
  Rng topology_rng = Rng(config.seed).Fork("topology");
  const DelayRange delays{config.link_delay_min, config.link_delay_max};
  return config.topology == TopologyKind::kFullMesh
             ? FullMesh(config.node_count, topology_rng, delays)
             : RandomConnected(config.node_count, config.degree,
                               topology_rng, delays);
}

}  // namespace

TracedResult TracedRun(const ScenarioConfig& config) {
  DCRD_CHECK(config.shards <= 1 && config.topology_file.empty() &&
             !config.trace && config.trace_out.empty() &&
             config.shard_profile_out.empty() && config.metrics_json.empty() &&
             config.timeseries_out.empty() && config.delay_audit_out.empty())
      << "TracedRun mirrors only the single-shard, unobserved engine";
  TracedResult out;
  SpanLog log;
  {
    Scope cell(log, Layer::kCell);
    std::unique_ptr<Graph> graph;
    {
      Scope scope(log, Layer::kTopology);
      graph = std::make_unique<Graph>(MakeTopology(config));
    }
    std::unique_ptr<TracedSim> sim;
    {
      Scope setup(log, Layer::kSetup);
      sim = std::make_unique<TracedSim>(config, *graph, log, out);
    }
    sim->Run();
    Scope teardown(log, Layer::kTeardown);
    sim.reset();
    graph.reset();
  }
  log.Fold(out);
  return out;
}

}  // namespace dcrd::perfbench
