// In-memory span recorder for the benchmark's traced run.
//
// Spans come only from the benchmark's own code, around its calls into the
// library's layers: name, start, end, parent span, and the shot, batch or
// qubit id the call served plus how many shots it covered. One Tracer belongs to
// one thread (its parent stack is that thread's call stack); a phase with
// several threads gives each its own Tracer and merges them afterwards.
// A disabled Tracer records nothing, so the untraced run pays one branch
// per span site.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::uint32_t name = 0;  ///< Index into names().
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< Index into spans(), -1 at the root.
    std::uint64_t id = 0;      ///< Shot, batch or qubit id.
    std::uint64_t items = 0;   ///< Shots (or other work units) covered.
  };

  /// Per-name aggregate: count, items, total and self time. Self time is a
  /// span's duration minus the time its direct children cover.
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t items = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  explicit Tracer(bool enabled, Clock::time_point epoch = Clock::now())
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }
  Clock::time_point epoch() const { return epoch_; }

  /// Opens a span as a child of the innermost open span; returns its index
  /// (or -1 when disabled).
  std::int64_t begin(const std::string& name, std::uint64_t id = 0,
                     std::uint64_t items = 0) {
    if (!enabled_) return -1;
    Span s;
    s.name = intern(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.id = id;
    s.items = items;
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return open_.back();
  }

  void end(std::int64_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  /// Records an already-measured interval as a child of the innermost open
  /// span (for timings taken around a call the caller clocks itself).
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, std::uint64_t id = 0,
              std::uint64_t items = 0) {
    if (!enabled_) return;
    Span s;
    s.name = intern(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = since_epoch(start);
    s.end_ns = since_epoch(end);
    s.id = id;
    s.items = items;
    spans_.push_back(s);
  }

  /// Appends another thread's spans (same epoch), re-parenting its roots
  /// under `parent` (-1 keeps them roots).
  void merge(const Tracer& other, std::int64_t parent = -1) {
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (Span s : other.spans_) {
      s.name = intern(other.names_[s.name]);
      s.parent = s.parent < 0 ? parent : s.parent + base;
      spans_.push_back(s);
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  std::map<std::string, Totals> totals() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      Totals& t = out[names_[s.name]];
      ++t.count;
      t.items += s.items;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
    }
    return out;
  }

  /// Writes every span as one JSON object per line.
  bool write(const std::string& path) const {
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"span\": " << i << ", \"name\": \"" << names_[s.name]
         << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"parent\": " << s.parent << ", \"id\": " << s.id
         << ", \"items\": " << s.items << "}\n";
    }
    os.flush();
    return os.good();
  }

 private:
  std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  std::int64_t now_ns() const { return since_epoch(Clock::now()); }

  std::uint32_t intern(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.push_back(name);
    const auto id = static_cast<std::uint32_t>(names_.size() - 1);
    ids_.emplace(name, id);
    return id;
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t id = 0,
             std::uint64_t items = 0)
      : tracer_(tracer), index_(tracer.begin(name, id, items)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

}  // namespace perfbench
