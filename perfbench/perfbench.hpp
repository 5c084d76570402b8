// Shared pieces of the repository benchmark: run options, the per-run result
// (metrics, checked-output counts, output digests), the in-memory span
// tracer, and small statistics helpers.  Each workload lives in its own
// translation unit (table3.cpp, cosim.cpp, serve.cpp) and fills a Result;
// perfbench.cpp owns the command line, the golden-digest check, and the
// final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< Span dump path (traced runs only).
};

/// What one run measured and checked.  `values` holds every metric the
/// workload measured; perfbench.cpp reports the declared metric lists from
/// it, with 0 for a layer the workload never enters.
struct Result {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;  ///< Checked outputs (operations + checks).
  std::uint64_t failed = 0;     ///< Checked outputs that did not match.
  /// Output digests (FNV-1a 64, hex) compared against perfbench/golden.txt.
  std::map<std::string, std::string> digests;

  /// Count one checked output; a mismatch is reported on stderr.
  void check(bool ok, std::string_view what);
};

// ---- Workloads ---------------------------------------------------------------

void run_table3_sweep(const Options& options, Result& result);
void run_cosim(const Options& options, Result& result);  // cosim_calls/compute
void run_serve_registry(const Options& options, Result& result);

// ---- Tracing -----------------------------------------------------------------

/// One recorded interval.  `request` groups the spans of one operation: a
/// pass index for the batch workloads, a request index for serving.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;

  [[nodiscard]] double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// Process-wide in-memory span store.  Recording is off unless a traced run
/// enables it; spans are written out once, when the run ends.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(const Span& span);
  [[nodiscard]] std::uint64_t next_id();

  /// Durations (seconds) of the spans called `name`, optionally only those
  /// of one request.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  [[nodiscard]] std::vector<double> durations(std::string_view name,
                                              std::uint64_t request) const;

  /// Write every span as one JSON object per line.  Returns false on error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: records [construction, destruction) when tracing is enabled.
/// The enclosing span on the same thread becomes the parent, and its
/// request id is inherited unless one is given.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_request_ = 0;
};

// ---- Helpers -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& values);

/// FNV-1a 64 of `text`, as 16 hex digits.
[[nodiscard]] std::string digest(std::string_view text);

/// splitmix64: the seeded stream every generated input comes from.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

/// Process high-water resident set size in MB.
[[nodiscard]] double peak_rss_mb();

/// Worker threads for the threaded workloads: min(4, hardware threads).
[[nodiscard]] unsigned bench_threads();

}  // namespace perfbench
