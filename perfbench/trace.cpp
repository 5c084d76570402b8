#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

void Result::check(bool ok, std::string_view what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failed <= 20) {
      std::cerr << "perfbench: output check failed: " << what << "\n";
    }
  }
}

// ---- Tracer ------------------------------------------------------------------

namespace {

thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_request = 0;

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.seconds());
  }
  return out;
}

std::vector<double> Tracer::durations(std::string_view name,
                                      std::uint64_t request) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.request == request && name == span.name) {
      out.push_back(span.seconds());
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

Scope::Scope(const char* name, std::uint64_t request) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.next_id();
  span_.parent = t_parent;
  span_.request = request != 0 ? request : t_request;
  saved_parent_ = t_parent;
  saved_request_ = t_request;
  t_parent = span_.id;
  t_request = span_.request;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_parent = saved_parent_;
  t_request = saved_request_;
  Tracer::instance().record(span_);
}

// ---- Helpers -----------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(position);
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

double sum(const std::vector<double>& values) {
  double total = 0;
  for (const double value : values) total += value;
  return total;
}

std::string digest(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss carries the high-water mark of the
  // process image before exec (here, the Python launcher) into this one.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

unsigned bench_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

}  // namespace perfbench
