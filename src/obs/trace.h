// Trace-span recorder — the temporal half of the observability subsystem
// (DESIGN.md §9). Scoped RAII spans capture what the printf tables can't:
// *when* each plan iteration, full-forest build, repair round, or sim
// epoch ran, how long it took, and inside which enclosing operation.
//
// Completed spans land in a bounded ring buffer (oldest overwritten, drops
// counted), so a long-running deployment can keep the recorder on forever
// and snapshot the recent past on demand. Parent links are derived from a
// thread-local span stack: a span opened while another is live on the same
// thread (and the same recorder) records it as its parent, which is enough
// to reconstruct plan → build → commit nesting without any global clock
// coordination. Cross-thread work (the evaluation engine's pool) starts a
// fresh root on its own thread by design.
//
// When obs::enabled() is off, constructing a Span is two relaxed loads and
// no clock read — the hot paths stay un-instrumented for free.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace remo::obs {

/// One completed span. `start_s` is seconds since the recorder's epoch
/// (its construction or last clear()); records() returns completion order,
/// so children always precede their parent.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root (no enclosing span)
  std::string name;
  double start_s = 0.0;
  double duration_s = 0.0;
};

class Span;

class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 4096);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Completed spans, oldest first (completion order).
  std::vector<SpanRecord> records() const REMO_EXCLUDES(mutex_);
  /// Spans overwritten because the ring was full.
  std::size_t dropped() const REMO_EXCLUDES(mutex_);
  std::size_t capacity() const noexcept { return capacity_; }
  /// Drops all records and restarts the time epoch; live spans still end
  /// into the cleared ring (their start_s is taken against the *new*
  /// epoch, under the same lock that moved it — see commit()).
  void clear() REMO_EXCLUDES(mutex_);

  /// The process-global default instance.
  static TraceRecorder& global();

 private:
  friend class Span;
  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  double since_epoch(std::chrono::steady_clock::time_point t) const
      REMO_REQUIRES(mutex_);
  /// Stamps record.start_s from `start` and the current epoch — both read
  /// under mutex_, so a concurrent clear() (which moves the epoch) cannot
  /// race the conversion. A span ending during clear() lands consistently
  /// on one side of the new epoch (possibly with a negative start_s).
  void commit(SpanRecord record, std::chrono::steady_clock::time_point start)
      REMO_EXCLUDES(mutex_);

  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::vector<SpanRecord> ring_ REMO_GUARDED_BY(mutex_);
  /// Insertion point once the ring wrapped.
  std::size_t next_slot_ REMO_GUARDED_BY(mutex_) = 0;
  bool wrapped_ REMO_GUARDED_BY(mutex_) = false;
  std::size_t dropped_ REMO_GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point epoch_ REMO_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> next_id_{0};
};

/// RAII scope: records one span from construction to destruction. Inert
/// (no clock read, nothing recorded) when obs::enabled() is off at
/// construction or `recorder` is null.
class Span {
 public:
  explicit Span(const char* name,
                TraceRecorder* recorder = &TraceRecorder::global());
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return recorder_ != nullptr; }
  std::uint64_t id() const noexcept { return id_; }

 private:
  TraceRecorder* recorder_ = nullptr;  ///< null = inert
  const char* name_ = "";
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace remo::obs
