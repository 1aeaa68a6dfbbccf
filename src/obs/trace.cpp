#include "obs/trace.h"

#include <algorithm>

#include "obs/metrics.h"

namespace remo::obs {

namespace {

/// Per-thread stack of live spans. Entries carry their recorder so a
/// hermetic test recorder nested inside globally-recorded code (or vice
/// versa) links parents only within its own recorder.
struct LiveSpan {
  TraceRecorder* recorder;
  std::uint64_t id;
};

thread_local std::vector<LiveSpan> t_live_spans;

std::uint64_t current_parent(TraceRecorder* recorder) {
  for (auto it = t_live_spans.rbegin(); it != t_live_spans.rend(); ++it)
    if (it->recorder == recorder) return it->id;
  return 0;
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
}

double TraceRecorder::since_epoch(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double>(t - epoch_).count();
}

void TraceRecorder::commit(SpanRecord record,
                           std::chrono::steady_clock::time_point start) {
  {
    MutexLock lock(mutex_);
    // start_s must be derived under the lock: clear() moves the epoch, and
    // an unguarded read here raced it (caught by annotation, PR 10).
    record.start_s = since_epoch(start);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
      return;
    }
    ring_[next_slot_] = std::move(record);
    next_slot_ = (next_slot_ + 1) % capacity_;
    wrapped_ = true;
    ++dropped_;
  }
}

std::vector<SpanRecord> TraceRecorder::records() const {
  MutexLock lock(mutex_);
  if (!wrapped_) return ring_;
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(next_slot_ + i) % ring_.size()]);
  return out;
}

std::size_t TraceRecorder::dropped() const {
  MutexLock lock(mutex_);
  return dropped_;
}

void TraceRecorder::clear() {
  MutexLock lock(mutex_);
  ring_.clear();
  next_slot_ = 0;
  wrapped_ = false;
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* instance = new TraceRecorder();  // leaked: outlives all
  return *instance;
}

Span::Span(const char* name, TraceRecorder* recorder) {
  if (recorder == nullptr || !enabled()) return;
  recorder_ = recorder;
  name_ = name;
  id_ = recorder->next_id();
  parent_ = current_parent(recorder);
  t_live_spans.push_back({recorder, id_});
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  // Pop our own entry; lexical nesting makes it the matching top in
  // practice, but search defensively so an out-of-order destruction can't
  // corrupt a sibling's parent link.
  for (auto it = t_live_spans.rbegin(); it != t_live_spans.rend(); ++it) {
    if (it->recorder == recorder_ && it->id == id_) {
      t_live_spans.erase(std::next(it).base());
      break;
    }
  }
  SpanRecord record;
  record.id = id_;
  record.parent = parent_;
  record.name = name_;
  record.duration_s = std::chrono::duration<double>(end - start_).count();
  // start_s is stamped by commit() under the recorder lock (epoch read).
  recorder_->commit(std::move(record), start_);
}

}  // namespace remo::obs
