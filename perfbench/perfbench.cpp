// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --golden PATH [--trace_out PATH] [--update_golden]
//
// Runs one workload (table3_sweep, cosim_calls, cosim_compute,
// serve_registry), checks every output against the run's own reference and
// against the committed golden digests, and prints as its last stdout line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end list below, with --trace 1 the
// per-layer list (a layer the workload never enters reads 0).  Exits 1 when
// any output check failed.  perfbench/run.py builds and invokes it.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "perfbench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py checks the names match).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"pass_s", "s"},        {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},    {"op_p99_ms", "ms"},    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    // table3_sweep
    {"workloads.calibrate_total_s", "s"},
    {"workloads.calibrate_max_s", "s"},
    {"titancfi.replay_total_s", "s"},
    {"sim.sweep_busy_s", "s"},
    {"sim.sweep_efficiency", "ratio"},
    {"sim.sweep_slowest_share", "ratio"},
    {"table3.poll_mre_pct", "%"},
    {"table3.opt_mre_pct", "%"},
    // cosim_calls / cosim_compute
    {"api.build_us", "us"},
    {"api.images_us", "us"},
    {"api.make_soc_us", "us"},
    {"api.run_ms", "ms"},
    {"sim.mcycles_per_s", "Mcycles/s"},
    {"soc.host_ns_per_cycle", "ns"},
    {"soc.host_us_per_cf_log", "us"},
    {"cva6.bare_s", "s"},
    {"cva6.bare_share", "ratio"},
    {"soc.event_over_lockstep", "ratio"},
    {"soc.cycles", "count"},
    {"cva6.instructions", "count"},
    {"cva6.ipc", "ratio"},
    {"titancfi.cf_logs", "count"},
    {"titancfi.queue_full_share", "ratio"},
    {"titancfi.dual_cf_stalls", "count"},
    {"soc.doorbells", "count"},
    {"soc.doorbells_per_log", "ratio"},
    {"ibex.rot_instructions", "count"},
    {"crypto.hmac_starts", "count"},
    {"sim.decode_hit_ratio", "ratio"},
    {"sim.page_cache_hit_ratio", "ratio"},
    {"soc.cfi_slowdown", "ratio"},
    // cosim (per scenario) and serve_registry (per request of the mix)
    {"api.render_us", "us"},
    // serve_registry
    {"serve.warm_p50_ms", "ms"},
    {"serve.warm_p99_ms", "ms"},
    {"serve.spec_p50_ms", "ms"},
    {"serve.spec_p99_ms", "ms"},
    {"serve.latency_samples", "count"},
    {"api.wire_parse_us", "us"},
    {"api.from_serialized_us", "us"},
    {"api.capture_us", "us"},
    {"api.warm_run_us", "us"},
    {"api.wire_render_us", "us"},
    {"serve.json_share", "ratio"},
    {"serve.server_mean_us", "us"},
    {"serve.transport_share", "ratio"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.sim_cycles_total", "count"},
    {"serve.shed", "count"},
    {"serve.errors", "count"},
    // every workload
    {"trace.overhead_pct", "%"},
};

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --golden PATH [--trace_out PATH] "
               "[--update_golden]\n";
  return 2;
}

std::map<std::string, std::string> read_golden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string key, value;
  while (in >> key >> value) golden[key] = value;
  return golden;
}

bool write_golden(const std::string& path,
                  const std::map<std::string, std::string>& golden) {
  std::ofstream out(path);
  for (const auto& [key, value] : golden) out << key << " " << value << "\n";
  return static_cast<bool>(out);
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string golden_path;
  bool update_golden = false;
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--update_golden") {
      update_golden = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        trace_given = true;
      } else if (flag == "--golden") {
        golden_path = value;
      } else if (flag == "--trace_out") {
        options.trace_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!trace_given || golden_path.empty() || !(options.seconds > 0)) {
    return usage("--trace, --golden and a positive --seconds are required");
  }

  Result result;
  try {
    if (options.workload == "table3_sweep") {
      run_table3_sweep(options, result);
    } else if (options.workload == "cosim_calls" ||
               options.workload == "cosim_compute") {
      run_cosim(options, result);
    } else if (options.workload == "serve_registry") {
      run_serve_registry(options, result);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: "
              << error.what() << "\n";
    return 1;
  }
  result.values["peak_rss_mb"] = peak_rss_mb();

  std::map<std::string, std::string> golden = read_golden(golden_path);
  if (update_golden) {
    for (const auto& [key, value] : result.digests) golden[key] = value;
    if (!write_golden(golden_path, golden)) {
      std::cerr << "perfbench: cannot write " << golden_path << "\n";
      return 1;
    }
  }
  for (const auto& [key, value] : result.digests) {
    const auto found = golden.find(key);
    result.check(found != golden.end() && found->second == value,
                 key + ": digest " + value + " does not match " + golden_path);
  }

  if (options.trace && !options.trace_out.empty() &&
      !Tracer::instance().write(options.trace_out)) {
    std::cerr << "perfbench: cannot write spans to " << options.trace_out
              << "\n";
    return 1;
  }

  std::ostringstream metrics;
  bool first = true;
  const auto emit = [&](const MetricDef& def) {
    const auto found = result.values.find(def.name);
    const double value = found == result.values.end() ? 0.0 : found->second;
    std::cout << "  " << def.name << " = " << number(value) << " " << def.unit
              << "\n";
    metrics << (first ? "" : ", ") << "\"" << def.name
            << "\": {\"value\": " << number(value) << ", \"unit\": \""
            << def.unit << "\"}";
    first = false;
  };
  std::cout << options.workload << " seed " << options.seed << " ("
            << (options.trace ? "traced, per-layer" : "end-to-end") << ")\n";
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
