#include "service/daemon.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "common/check.h"
#include "service/snapshot.h"

namespace remo::service {

namespace {

/// Retained time-series samples (ring; oldest dropped first).
constexpr std::size_t kSeriesCapacity = 1024;

/// Latency buckets in epochs (scaled by epoch_duration at registration):
/// the ingest-to-collected latency of a value deferred k epochs is
/// (k + 1) · epoch_duration, so the interesting resolution is small
/// integer multiples of the epoch, with a geometric tail for backlogs.
std::vector<double> latency_bounds(double epoch_duration) {
  std::vector<double> bounds;
  for (double b : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0,
                   48.0, 64.0, 96.0, 128.0})
    bounds.push_back(b * epoch_duration);
  return bounds;
}

void encode_command(wire::Writer& w, const Command& cmd) {
  w.u8(static_cast<std::uint8_t>(cmd.kind));
  w.u32(cmd.producer);
  w.u32(static_cast<std::uint32_t>(cmd.values.size()));
  for (const ValueUpdate& v : cmd.values) {
    w.u32(v.node);
    w.u32(v.attr);
    w.f64(v.value);
  }
  encode_task(w, cmd.task);
  w.u32(cmd.task_id);
  w.u8(static_cast<std::uint8_t>(cmd.control));
  w.f64(cmd.enqueued_at);
}

/// The entry of `attr` in an attr-sorted value row, or where it belongs.
auto find_attr(auto& row, AttrId attr) {
  return std::lower_bound(
      row.begin(), row.end(), attr,
      [](const auto& entry, AttrId a) { return entry.attr < a; });
}

Command decode_command(wire::Reader& r) {
  Command cmd;
  cmd.kind = static_cast<CommandKind>(r.u8());
  cmd.producer = r.u32();
  cmd.values.resize(r.u32());
  for (ValueUpdate& v : cmd.values) {
    v.node = r.u32();
    v.attr = r.u32();
    v.value = r.f64();
  }
  cmd.task = decode_task(r);
  cmd.task_id = r.u32();
  cmd.control = static_cast<ControlKind>(r.u8());
  cmd.enqueued_at = r.f64();
  return cmd;
}

}  // namespace

MonitoringDaemon::MonitoringDaemon(SystemModel global, DaemonOptions options)
    : options_(std::move(options)),
      system_(std::move(global), options_.federation),
      bus_(options_.bus),
      latest_values_(system_.system().num_nodes() + 1) {
  REMO_ASSERT(options_.epoch_duration > 0.0, "epoch duration must be positive");
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry_or_global(options_.metrics);
    metrics_.epochs = &reg.counter("service.epochs");
    metrics_.commands_applied = &reg.counter("service.commands_applied");
    metrics_.values_applied = &reg.counter("service.values_applied");
    metrics_.pairs_emitted = &reg.counter("service.pairs_emitted");
    metrics_.values_shed = &reg.gauge("service.values_shed");
    metrics_.queue_depth = &reg.gauge("service.queue_depth");
    metrics_.queued_values = &reg.gauge("service.queued_values");
    metrics_.coverage = &reg.gauge("service.coverage");
    metrics_.ingest_to_collected =
        &reg.histogram("service.ingest_to_collected_seconds",
                       latency_bounds(options_.epoch_duration));
  }
}

Admission MonitoringDaemon::submit_values(std::uint32_t producer,
                                          std::vector<ValueUpdate> values) {
  Command cmd;
  cmd.kind = CommandKind::kValues;
  cmd.producer = producer;
  cmd.values = std::move(values);
  cmd.enqueued_at = now();
  return bus_.push(std::move(cmd), now());
}

Admission MonitoringDaemon::submit_add_task(MonitoringTask task) {
  Command cmd;
  cmd.kind = CommandKind::kAddTask;
  cmd.task = std::move(task);
  cmd.enqueued_at = now();
  return bus_.push(std::move(cmd), now());
}

Admission MonitoringDaemon::submit_remove_task(TaskId id) {
  Command cmd;
  cmd.kind = CommandKind::kRemoveTask;
  cmd.task_id = id;
  cmd.enqueued_at = now();
  return bus_.push(std::move(cmd), now());
}

Admission MonitoringDaemon::submit_modify_task(MonitoringTask task) {
  Command cmd;
  cmd.kind = CommandKind::kModifyTask;
  cmd.task = std::move(task);
  cmd.enqueued_at = now();
  return bus_.push(std::move(cmd), now());
}

Admission MonitoringDaemon::submit_control(ControlKind control) {
  Command cmd;
  cmd.kind = CommandKind::kControl;
  cmd.control = control;
  cmd.enqueued_at = now();
  return bus_.push(std::move(cmd), now());
}

void MonitoringDaemon::apply(Command& cmd, std::uint64_t& values_this_epoch) {
  ++stats_.commands_applied;
  switch (cmd.kind) {
    case CommandKind::kValues: {
      // LivenessTracker::on_delivery reads only the node, and a repeat
      // within the epoch changes nothing: one delivery per run of equal
      // node ids.
      NodeId delivered = kNoNode;
      for (const ValueUpdate& v : cmd.values) {
        if (v.node == kCollectorId || v.node > system_.system().num_nodes()) {
          ++stats_.values_invalid;
          continue;
        }
        const NodeAttrPair pair{v.node, v.attr};
        store_value(pair, v.value, /*overwrite=*/true);
        if (v.node != delivered) {
          system_.on_delivery(pair, epoch_);
          delivered = v.node;
        }
        pending_latency_.emplace_back(pair, cmd.enqueued_at);
        ++values_this_epoch;
        ++stats_.values_applied;
      }
      break;
    }
    case CommandKind::kAddTask:
      cmd.task.id = 0;  // the facade assigns ids in apply (FIFO) order
      system_.add_task(std::move(cmd.task));
      ++stats_.tasks_added;
      break;
    case CommandKind::kRemoveTask:
      if (system_.remove_task(cmd.task_id)) ++stats_.tasks_removed;
      break;
    case CommandKind::kModifyTask:
      if (system_.modify_task(std::move(cmd.task))) ++stats_.tasks_modified;
      break;
    case CommandKind::kControl:
      if (cmd.control == ControlKind::kReplan) {
        system_.replan(now());
        ++stats_.replans_forced;
      } else {
        snapshot_requested_ = true;
      }
      break;
  }
}

void MonitoringDaemon::run_epoch() {
  ++epoch_;
  const double now_end = now();

  scratch_commands_.clear();
  bus_.drain(scratch_commands_, options_.max_values_per_epoch);
  std::uint64_t values_this_epoch = 0;
  for (Command& cmd : scratch_commands_) apply(cmd, values_this_epoch);
  stats_.value_epochs_deferred += bus_.queued_values();

  // Recovery step (per-shard no-op unless recovery is enabled), then the
  // lazy replan + emission — this is where the epoch's plan settles, so a
  // snapshot taken below never perturbs throttle decisions.
  system_.end_epoch(epoch_);
  emit_epoch(now_end, values_this_epoch);

  if (snapshot_requested_) {
    snapshot_requested_ = false;
    last_snapshot_ = snapshot();
    ++stats_.snapshots_taken;
  }
}

void MonitoringDaemon::run(std::size_t epochs) {
  for (std::size_t i = 0; i < epochs; ++i) run_epoch();
}

void MonitoringDaemon::run_wall_clock(double period_seconds,
                                      std::size_t epochs) {
  for (std::size_t i = 0; i < epochs; ++i) {
    run_epoch();
    if (period_seconds > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(period_seconds));
  }
}

void MonitoringDaemon::emit_epoch(double now_end,
                                  std::uint64_t values_this_epoch) {
  ++stats_.epochs;
  last_status_ = system_.status(now_end);
  const std::uint64_t gen = system_.generation();
  if (!collected_valid_ || gen != collected_generation_) {
    collected_ = system_.collected_pairs(now_end);
    collected_generation_ = gen;
    collected_valid_ = true;
    collected_begin_.assign(latest_values_.size() + 1, 0);
    for (const NodeAttrPair& p : collected_) ++collected_begin_[p.node + 1];
    std::partial_sum(collected_begin_.begin(), collected_begin_.end(),
                     collected_begin_.begin());
  }
  stats_.pairs_emitted += collected_.size();

  for (const auto& [pair, enqueued_at] : pending_latency_) {
    if (!collected(pair))
      continue;  // pair not in the plan — the value was never deliverable
    ++stats_.values_collected;
    if (metrics_.ingest_to_collected != nullptr)
      metrics_.ingest_to_collected->observe(now_end - enqueued_at);
  }
  pending_latency_.clear();

  if (options_.sink) {
    wire::EpochPairsRecord rec;
    rec.epoch = epoch_;
    rec.values_applied = values_this_epoch;
    rec.pairs.reserve(collected_.size());
    for (const NodeAttrPair& p : collected_)
      rec.pairs.push_back(wire::WirePair{p.node, p.attr, value_of(p)});
    wire::Writer w;
    wire::append_record(w, wire::RecordType::kEpochPairs,
                        wire::encode_epoch_pairs(rec));
    emit_stream(w.buffer().data(), w.size());
  }

  const BusStats bus_stats = bus_.stats();
  wire::SeriesSample sample;
  sample.epoch = epoch_;
  sample.values_applied = values_this_epoch;
  sample.pairs_collected = collected_.size();
  sample.coverage = last_status_.coverage;
  sample.message_volume = last_status_.message_volume;
  sample.queue_depth = bus_.depth();
  sample.values_shed = bus_stats.values_shed;
  series_.push_back(sample);
  while (series_.size() > kSeriesCapacity) series_.pop_front();

  if (metrics_.epochs != nullptr) {
    metrics_.epochs->add(1);
    metrics_.commands_applied->add(scratch_commands_.size());
    metrics_.values_applied->add(values_this_epoch);
    metrics_.pairs_emitted->add(collected_.size());
    metrics_.values_shed->set(static_cast<double>(bus_stats.values_shed));
    metrics_.queue_depth->set(static_cast<double>(sample.queue_depth));
    metrics_.queued_values->set(static_cast<double>(bus_.queued_values()));
    metrics_.coverage->set(last_status_.coverage);
  }
}

void MonitoringDaemon::emit_stream(const std::uint8_t* data,
                                   std::size_t size) {
  if (!options_.sink) return;
  if (!header_written_) {
    header_written_ = true;
    wire::Writer header;
    wire::begin_stream(header);
    options_.sink(header.buffer().data(), header.size());
  }
  options_.sink(data, size);
}

void MonitoringDaemon::store_value(NodeAttrPair pair, double value,
                                   bool overwrite) {
  ValueRow& row = latest_values_[pair.node];
  const auto it = find_attr(row, pair.attr);
  if (it == row.end() || it->attr != pair.attr)
    row.insert(it, AttrValue{pair.attr, value});
  else if (overwrite)
    it->value = value;
}

bool MonitoringDaemon::collected(NodeAttrPair pair) const {
  const NodeAttrPair* pairs = collected_.data();
  return std::binary_search(pairs + collected_begin_[pair.node],
                            pairs + collected_begin_[pair.node + 1], pair);
}

double MonitoringDaemon::value_of(NodeAttrPair pair) const {
  if (pair.node >= latest_values_.size()) return 0.0;
  const ValueRow& row = latest_values_[pair.node];
  const auto it = find_attr(row, pair.attr);
  return it == row.end() || it->attr != pair.attr ? 0.0 : it->value;
}

std::vector<std::uint8_t> MonitoringDaemon::snapshot() {
  wire::Writer payload;
  encode_system(payload, system_, now());

  payload.u64(epoch_);
  std::uint64_t nvalues = 0;
  for (const ValueRow& row : latest_values_) nvalues += row.size();
  payload.u64(nvalues);
  for (NodeId node = 0; node < latest_values_.size(); ++node) {
    for (const AttrValue& v : latest_values_[node]) {
      payload.u32(node);
      payload.u32(v.attr);
      payload.f64(v.value);
    }
  }
  payload.u64(stats_.epochs);
  payload.u64(stats_.commands_applied);
  payload.u64(stats_.values_applied);
  payload.u64(stats_.values_invalid);
  payload.u64(stats_.values_collected);
  payload.u64(stats_.value_epochs_deferred);
  payload.u64(stats_.tasks_added);
  payload.u64(stats_.tasks_removed);
  payload.u64(stats_.tasks_modified);
  payload.u64(stats_.replans_forced);
  payload.u64(stats_.snapshots_taken);
  payload.u64(stats_.pairs_emitted);

  const std::vector<Command> queue = bus_.export_queue();
  payload.u32(static_cast<std::uint32_t>(queue.size()));
  for (const Command& cmd : queue) encode_command(payload, cmd);
  const auto buckets = bus_.export_buckets();
  payload.u32(static_cast<std::uint32_t>(buckets.size()));
  for (const auto& b : buckets) {
    payload.u32(b.producer);
    payload.f64(b.limits.rate);
    payload.f64(b.limits.burst);
    payload.f64(b.tokens);
    payload.f64(b.last_refill);
    payload.u8(b.initialized ? 1 : 0);
  }
  const BusStats bus_stats = bus_.stats();
  payload.u64(bus_stats.pushed);
  payload.u64(bus_stats.accepted);
  payload.u64(bus_stats.values_accepted);
  payload.u64(bus_stats.shed_rate_limit);
  payload.u64(bus_stats.shed_backpressure);
  payload.u64(bus_stats.rejected_full);
  payload.u64(bus_stats.values_shed);
  payload.u64(bus_stats.depth_peak);

  wire::Writer w;
  wire::begin_stream(w);
  wire::append_record(w, wire::RecordType::kSnapshot, payload.buffer());
  return w.take();
}

void MonitoringDaemon::restore(const std::vector<std::uint8_t>& image) {
  wire::Reader r(image);
  REMO_ASSERT(wire::read_stream_header(r), "snapshot image has no REMO header");
  wire::Record rec;
  REMO_ASSERT(wire::next_record(r, rec) &&
                  rec.type == wire::RecordType::kSnapshot,
              "snapshot image carries no kSnapshot record");
  wire::Reader p(rec.payload, rec.size);
  REMO_ASSERT(decode_system(p, system_), "malformed system image in snapshot");

  epoch_ = p.u64();
  for (ValueRow& row : latest_values_) row.clear();
  const std::uint64_t nvalues = p.u64();
  for (std::uint64_t i = 0; i < nvalues && p.ok(); ++i) {
    NodeAttrPair pair;
    pair.node = p.u32();
    pair.attr = p.u32();
    const double value = p.f64();
    if (!p.ok()) break;
    REMO_ASSERT(pair.node < latest_values_.size(), "snapshot value for node ",
                pair.node, " outside the ", latest_values_.size() - 1,
                "-node universe");
    // The first value of a repeated pair wins.
    store_value(pair, value, /*overwrite=*/false);
  }
  stats_.epochs = p.u64();
  stats_.commands_applied = p.u64();
  stats_.values_applied = p.u64();
  stats_.values_invalid = p.u64();
  stats_.values_collected = p.u64();
  stats_.value_epochs_deferred = p.u64();
  stats_.tasks_added = p.u64();
  stats_.tasks_removed = p.u64();
  stats_.tasks_modified = p.u64();
  stats_.replans_forced = p.u64();
  stats_.snapshots_taken = p.u64();
  stats_.pairs_emitted = p.u64();

  std::vector<Command> queue(p.u32());
  for (Command& cmd : queue) cmd = decode_command(p);
  std::vector<MessageBus::BucketState> buckets(p.u32());
  for (auto& b : buckets) {
    b.producer = p.u32();
    b.limits.rate = p.f64();
    b.limits.burst = p.f64();
    b.tokens = p.f64();
    b.last_refill = p.f64();
    b.initialized = p.u8() != 0;
  }
  BusStats bus_stats;
  bus_stats.pushed = p.u64();
  bus_stats.accepted = p.u64();
  bus_stats.values_accepted = p.u64();
  bus_stats.shed_rate_limit = p.u64();
  bus_stats.shed_backpressure = p.u64();
  bus_stats.rejected_full = p.u64();
  bus_stats.values_shed = p.u64();
  bus_stats.depth_peak = p.u64();
  REMO_ASSERT(p.ok() && p.at_end(), "snapshot image has trailing or truncated ",
              "daemon state (", p.remaining(), " bytes remaining)");
  bus_.restore(std::move(queue), std::move(buckets), bus_stats);

  // Presentation state restarts fresh: the series ring and wire stream
  // belong to the process, not the monitored state.
  pending_latency_.clear();
  series_.clear();
  collected_valid_ = false;
  snapshot_requested_ = false;
  last_snapshot_.clear();
  // The restored facade is clean (restore_planner left nothing dirty), so
  // this read settles last_status_ without planning work.
  last_status_ = system_.status(now());
}

std::string MonitoringDaemon::summary_json() const {
  const BusStats bus_stats = bus_.stats();
  std::ostringstream os;
  os << "{\"service\":{"
     << "\"epochs\":" << stats_.epochs
     << ",\"virtual_time\":" << now()
     << ",\"commands_applied\":" << stats_.commands_applied
     << ",\"values_applied\":" << stats_.values_applied
     << ",\"values_invalid\":" << stats_.values_invalid
     << ",\"values_collected\":" << stats_.values_collected
     << ",\"value_epochs_deferred\":" << stats_.value_epochs_deferred
     << ",\"tasks_added\":" << stats_.tasks_added
     << ",\"tasks_removed\":" << stats_.tasks_removed
     << ",\"tasks_modified\":" << stats_.tasks_modified
     << ",\"replans_forced\":" << stats_.replans_forced
     << ",\"snapshots_taken\":" << stats_.snapshots_taken
     << ",\"pairs_emitted\":" << stats_.pairs_emitted
     << "},\"bus\":{"
     << "\"pushed\":" << bus_stats.pushed
     << ",\"accepted\":" << bus_stats.accepted
     << ",\"values_accepted\":" << bus_stats.values_accepted
     << ",\"shed_rate_limit\":" << bus_stats.shed_rate_limit
     << ",\"shed_backpressure\":" << bus_stats.shed_backpressure
     << ",\"rejected_full\":" << bus_stats.rejected_full
     << ",\"values_shed\":" << bus_stats.values_shed
     << ",\"depth_peak\":" << bus_stats.depth_peak
     << "},\"status\":{"
     << "\"tasks\":" << last_status_.tasks
     << ",\"pairs\":" << last_status_.pairs
     << ",\"collected\":" << last_status_.collected
     << ",\"coverage\":" << last_status_.coverage
     << ",\"trees\":" << last_status_.trees
     << ",\"message_volume\":" << last_status_.message_volume
     << ",\"adaptations\":" << last_status_.adaptations
     << ",\"delta_applies\":" << last_status_.delta_applies
     << "},\"federation\":{\"shards\":" << system_.num_shards() << "}}";
  return os.str();
}

std::string MonitoringDaemon::time_series_text() const {
  std::string out = wire::series_header();
  for (const wire::SeriesSample& s : series_) out += wire::series_line(s);
  return out;
}

}  // namespace remo::service
