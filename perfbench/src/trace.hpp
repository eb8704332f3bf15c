// Spans recorded by the benchmark around every call it makes into the
// repository's modules.
//
// A span has a name, the layer (module) it charges, a start and end on the
// monotonic clock, its parent span and the job or request it served. Spans
// stay in memory and are written out when the run ends. Nesting follows the
// calling thread; spans recorded on other threads (chunk emits on build
// pool workers, kernel launches) name their parent explicitly.
//
// A layer's self time is the summed duration of its spans minus the part
// of each span its children cover; coverage is the share of a wall-clock
// window that the union of all spans covers.
#pragma once

#include <array>
#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace perfbench {

using eclp::i32;
using eclp::u32;
using eclp::u64;
using eclp::usize;

enum class Layer : u32 { kGen, kGraph, kSim, kAlgos, kProfile, kServe };
inline constexpr usize kLayers = 6;
const char* layer_name(Layer layer);

inline constexpr i32 kNoParent = -1;

struct Span {
  i32 parent = kNoParent;
  Layer layer = Layer::kGraph;
  std::string name;
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 op = 0;  ///< job or request id (0 = not tied to one)
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Toggle recording between passes (spans already open still close).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Open a span on the calling thread, nested under the thread's
  /// innermost open span of this tracer. Returns its id.
  i32 open(Layer layer, std::string name, u64 op);
  void close(i32 id);
  /// Record a finished span (another thread's work, or a launch reported
  /// after the fact) under an explicit parent.
  void record(Layer layer, std::string name, u64 start_ns, u64 end_ns,
              i32 parent, u64 op);
  /// The calling thread's innermost open span, or kNoParent.
  i32 current() const;

  std::vector<Span> spans() const;

  /// RAII span; a no-op on a disabled tracer.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer, const char* name, u64 op = 0)
        : tracer_(tracer.enabled() ? &tracer : nullptr) {
      if (tracer_ != nullptr) id_ = tracer_->open(layer, name, op);
    }
    ~Scope() { end(); }
    void end() {
      if (tracer_ != nullptr) tracer_->close(id_);
      tracer_ = nullptr;
    }
    i32 id() const { return id_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    i32 id_ = kNoParent;
  };

 private:
  std::atomic<bool> enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Length of the union of [start, end) intervals.
u64 union_ns(std::vector<std::pair<u64, u64>> intervals);

/// Per-span self time: duration minus the union of its children's
/// intervals clipped to the span.
std::vector<u64> self_times(const std::vector<Span>& spans);

/// Self time summed per layer, in seconds.
std::array<double, kLayers> layer_self_seconds(const std::vector<Span>& spans);

/// Share of [begin_ns, end_ns) covered by the union of all spans.
double coverage(const std::vector<Span>& spans, u64 begin_ns, u64 end_ns);

/// Summed duration of the spans named `name`, in seconds.
double total_seconds(const std::vector<Span>& spans, const std::string& name);

/// One JSON object per span.
std::string spans_jsonl(const std::vector<Span>& spans);

}  // namespace perfbench
