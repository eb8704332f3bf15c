#include "trace.hpp"

#include <algorithm>

#include "support/json.hpp"
#include "support/timer.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last, tagged with their
/// tracer so two tracers never nest into each other.
thread_local std::vector<std::pair<const Tracer*, i32>> t_open;

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kGen: return "gen";
    case Layer::kGraph: return "graph";
    case Layer::kSim: return "sim";
    case Layer::kAlgos: return "algos";
    case Layer::kProfile: return "profile";
    case Layer::kServe: return "serve";
  }
  return "?";
}

i32 Tracer::open(Layer layer, std::string name, u64 op) {
  const i32 parent = current();
  Span s{parent, layer, std::move(name), eclp::monotonic_ns(), 0, op};
  i32 id = 0;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    id = static_cast<i32>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.emplace_back(this, id);
  return id;
}

void Tracer::close(i32 id) {
  const u64 now = eclp::monotonic_ns();
  {
    std::lock_guard<std::mutex> lk(mutex_);
    spans_[static_cast<usize>(id)].end_ns = now;
  }
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this && it->second == id) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
}

void Tracer::record(Layer layer, std::string name, u64 start_ns, u64 end_ns,
                    i32 parent, u64 op) {
  std::lock_guard<std::mutex> lk(mutex_);
  spans_.push_back({parent, layer, std::move(name), start_ns, end_ns, op});
}

i32 Tracer::current() const {
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this) return it->second;
  }
  return kNoParent;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return spans_;
}

u64 union_ns(std::vector<std::pair<u64, u64>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  u64 total = 0;
  u64 cur_begin = 0;
  u64 cur_end = 0;
  bool open = false;
  for (const auto& [b, e] : intervals) {
    if (e <= b) continue;
    if (open && b <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_begin;
    cur_begin = b;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_begin;
  return total;
}

std::vector<u64> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<u64, u64>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans[static_cast<usize>(s.parent)];
    const u64 b = std::max(s.start_ns, p.start_ns);
    const u64 e = std::min(s.end_ns, p.end_ns);
    if (b < e) children[static_cast<usize>(s.parent)].emplace_back(b, e);
  }
  std::vector<u64> self(spans.size(), 0);
  for (usize i = 0; i < spans.size(); ++i) {
    const u64 dur = spans[i].end_ns > spans[i].start_ns
                        ? spans[i].end_ns - spans[i].start_ns
                        : 0;
    self[i] = dur - std::min(dur, union_ns(std::move(children[i])));
  }
  return self;
}

std::array<double, kLayers> layer_self_seconds(const std::vector<Span>& spans) {
  std::array<double, kLayers> out{};
  const std::vector<u64> self = self_times(spans);
  for (usize i = 0; i < spans.size(); ++i) {
    out[static_cast<usize>(spans[i].layer)] +=
        static_cast<double>(self[i]) / 1e9;
  }
  return out;
}

double coverage(const std::vector<Span>& spans, u64 begin_ns, u64 end_ns) {
  if (end_ns <= begin_ns) return 0.0;
  std::vector<std::pair<u64, u64>> iv;
  iv.reserve(spans.size());
  for (const Span& s : spans) {
    iv.emplace_back(std::max(s.start_ns, begin_ns), std::min(s.end_ns, end_ns));
  }
  return static_cast<double>(union_ns(std::move(iv))) /
         static_cast<double>(end_ns - begin_ns);
}

double total_seconds(const std::vector<Span>& spans, const std::string& name) {
  u64 ns = 0;
  for (const Span& s : spans) {
    if (s.name == name && s.end_ns > s.start_ns) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::string spans_jsonl(const std::vector<Span>& spans) {
  std::string out;
  for (usize i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    eclp::json::Value v = eclp::json::Value::object();
    v.set("id", static_cast<u64>(i));
    v.set("parent", static_cast<eclp::i64>(s.parent));
    v.set("layer", layer_name(s.layer));
    v.set("name", s.name);
    v.set("start_ns", s.start_ns);
    v.set("end_ns", s.end_ns);
    v.set("op", s.op);
    out += v.dump();
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
