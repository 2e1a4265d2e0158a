// In-memory span recording for the traced run.
//
// The traced run wraps each call into a library layer in a Span. Spans
// nest (the innermost open span is the parent), are kept in memory, and
// are written out once at the end as Chrome-trace JSON. Self time of a
// span is its duration minus the time its child spans cover; summing
// self time by layer says where a job's time went.
//
// Spans are recorded only while a TracerScope installs a Tracer, and
// only on the thread that installed it: an untraced job pays one pointer
// test per span, and calls made from worker threads are never recorded.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::string name;
    std::string layer;
    double start_s = 0.0;  ///< since the tracer was installed
    double end_s = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
  };

  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer when called from its thread, else nullptr.
  [[nodiscard]] static Tracer* active() noexcept;

  void begin(const char* name, const char* layer);
  void end();

  [[nodiscard]] const std::vector<Record>& records() const noexcept { return records_; }
  /// Total seconds and count of closed spans named `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Self seconds summed by layer over the closed spans recorded from
  /// index `first` on (all of them by default).
  [[nodiscard]] std::map<std::string, double> self_by_layer(std::size_t first = 0) const;

  /// {"traceEvents":[...]} with one complete ("X") event per span.
  [[nodiscard]] std::string chrome_json() const;
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
  std::map<std::string, std::pair<double, std::size_t>> by_name_;
};

/// Installs `tracer` for the calling thread until the scope ends.
class TracerScope {
 public:
  explicit TracerScope(Tracer& tracer);
  ~TracerScope();
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  Tracer* previous_;
  std::thread::id previous_owner_;
};

/// RAII span around one call into a layer; a no-op without a tracer.
class Span {
 public:
  Span(const char* name, const char* layer) : tracer_(Tracer::active()) {
    if (tracer_ != nullptr) tracer_->begin(name, layer);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// The closed loop every workload runs: job(traced) back to back until
/// `seconds` have passed and at least four jobs ran. With `trace`, every
/// other job runs under `tracer`, so traced and untraced jobs alternate
/// and their wall times give the tracing overhead.
template <typename Job>
void closed_loop(double seconds, bool trace, Tracer& tracer, Job&& job) {
  const auto start = Clock::now();
  for (std::size_t n = 0; n < 4 || seconds_since(start) < seconds; ++n) {
    if (trace && n % 2 == 1) {
      TracerScope on(tracer);
      job(true);
    } else {
      job(false);
    }
  }
}

}  // namespace perfbench
