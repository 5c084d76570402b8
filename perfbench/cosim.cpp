// cosim_calls / cosim_compute: one thread, event engine, queue depth 8,
// api::run_scenario over a fixed scenario list per pass.  The calls list is
// control-flow dense (RoT firmware, CFI queue/log writer/mailbox and HMAC do
// the work); the compute list emits no CF logs, so the CVA6 ISS, decode
// cache and memory fast path do it.  The seed shuffles the order of each
// pass; the list itself is fixed so the exact counters repeat.
#include <sched.h>

#include <algorithm>

#include "api/api.hpp"
#include "cva6/core.hpp"
#include "perfbench.hpp"
#include "api/enforce.hpp"

namespace perfbench {
namespace {

using titan::api::Firmware;
using titan::api::ScenarioBuilder;
using titan::api::Workload;

std::vector<ScenarioBuilder> scenario_list(const std::string& workload) {
  const auto named = [](const std::string& name, Workload program) {
    ScenarioBuilder builder;
    builder.name(name).workload(std::move(program)).queue_depth(8);
    return builder;
  };
  if (workload == "cosim_calls") {
    std::vector<ScenarioBuilder> list;
    list.push_back(named("calls/fib18_irq", Workload::fib(18)));
    list.push_back(named("calls/fib18_burst8_mac", Workload::fib(18)));
    list.back().drain_burst(8).batch_mac(true);
    list.push_back(named("calls/quicksort2000_poll", Workload::quicksort(2000)));
    list.back().firmware(Firmware::kPolling);
    list.push_back(
        named("calls/indirect5000_burst8", Workload::indirect_dispatch(5000)));
    list.back().drain_burst(8);
    list.push_back(named("calls/call_chain2000", Workload::call_chain(2000)));
    return list;
  }
  return {named("compute/matmul48", Workload::matmul(48)),
          named("compute/crc32_16384", Workload::crc32(16384)),
          named("compute/stats8000", Workload::stats(8000))};
}

std::vector<titan::api::Scenario> build_all(
    const std::vector<ScenarioBuilder>& builders) {
  std::vector<titan::api::Scenario> scenarios;
  for (const ScenarioBuilder& builder : builders) {
    scenarios.push_back(builder.build());
  }
  return scenarios;
}

/// Bare CVA6 (no CFI) on the scenario's workload image; returns its cycles.
std::uint64_t run_bare(const titan::api::Scenario& scenario) {
  const titan::rv::Image image = scenario.workload_image();
  titan::sim::Memory memory;
  memory.load(image.base, image.bytes);
  titan::cva6::Cva6Config config;
  config.reset_pc = image.base;
  titan::cva6::Cva6Core core(config, memory);
  return core.run_baseline();
}

/// Pins the calling thread to each CPU of its starting affinity mask in
/// turn, and restores the mask when destroyed.  On a shared host each core
/// runs fast or slow for tens of seconds at a time, so a single-threaded
/// run that stays on one core measures that core's phase; moving every pass
/// to the next core makes one run sample all of them.
class CoreRotation {
 public:
  CoreRotation() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CoreRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void move_to(std::uint64_t pass) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[pass % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

double ratio(double numerator, double denominator) {
  return denominator == 0 ? 0.0 : numerator / denominator;
}

}  // namespace

void run_cosim(const Options& options, Result& result) {
  Tracer& tracer = Tracer::instance();
  const titan::api::ReportSchema schema;

  // Set-up, three times (each on the next core): build the list and run one
  // discarded warm-up pass.  The first warm-up's reports are the reference
  // for every later run.
  CoreRotation rotation;
  std::vector<ScenarioBuilder> builders;
  std::vector<titan::api::Scenario> scenarios;
  std::vector<titan::api::RunReport> reference;
  std::vector<std::string> reference_text;
  std::vector<double> setup_seconds;
  for (int setup = 0; setup < 3; ++setup) {
    rotation.move_to(setup);
    const Clock::time_point start = Clock::now();
    builders = scenario_list(options.workload);
    scenarios = build_all(builders);
    std::vector<titan::api::RunReport> reports;
    std::vector<std::string> texts;
    for (const titan::api::Scenario& scenario : scenarios) {
      reports.push_back(titan::api::run_scenario(scenario));
      texts.push_back(schema.render(reports.back()));
    }
    setup_seconds.push_back(seconds_since(start));
    if (setup == 0) {
      reference = std::move(reports);
      reference_text = std::move(texts);
      continue;
    }
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      result.check(texts[i] == reference_text[i],
                   scenarios[i].name() + ": warm-up report differs");
    }
  }
  result.values["setup_s"] = median(setup_seconds);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    result.digests[options.workload + "/" + scenarios[i].name()] =
        digest(reference_text[i]);
  }

  // Timed passes in seeded order; a traced run alternates untraced and
  // traced passes.
  const std::size_t count = scenarios.size();
  std::vector<std::size_t> order(count);
  std::vector<double> pass_seconds;
  std::vector<double> traced_seconds;
  std::vector<std::uint64_t> traced_requests;
  std::vector<double> op_seconds;
  const Clock::time_point window = Clock::now();
  for (std::uint64_t pass = 0;
       pass < (options.trace ? 2u : 1u) ||
       seconds_since(window) < options.seconds;
       ++pass) {
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    std::uint64_t state = mix(options.seed ^ mix(pass));
    for (std::size_t i = count; i > 1; --i) {
      state = mix(state);
      std::swap(order[i - 1], order[state % i]);
    }
    // Traced and untraced passes alternate, so rotate per pair: both
    // kinds then visit every core.
    rotation.move_to(options.trace ? pass / 2 : pass);
    const bool traced = options.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    const Clock::time_point start = Clock::now();
    for (const std::size_t index : order) {
      const Clock::time_point op_start = Clock::now();
      const Scope op_span("cosim.op", pass + 1);
      titan::api::RunReport report;
      {
        const Scope span("api.run_scenario");
        report = titan::api::run_scenario(scenarios[index]);
      }
      std::string text;
      {
        const Scope span("api.render");
        text = schema.render(report);
      }
      if (!traced) op_seconds.push_back(seconds_since(op_start));
      result.check(text == reference_text[index],
                   scenarios[index].name() + ": report differs");
    }
    const double elapsed = seconds_since(start);
    tracer.set_enabled(false);
    if (traced) {
      traced_seconds.push_back(elapsed);
      traced_requests.push_back(pass + 1);
    } else {
      pass_seconds.push_back(elapsed);
    }
  }
  result.values["pass_s"] = sum(pass_seconds) / pass_seconds.size();
  result.values["ops_per_s"] =
      static_cast<double>(count * pass_seconds.size()) / sum(pass_seconds);
  result.values["op_p50_ms"] = 1e3 * quantile(op_seconds, 0.5);
  result.values["op_p99_ms"] = 1e3 * quantile(op_seconds, 0.99);

  // Exact counters, summed over the list (deterministic per scenario).
  double cycles = 0, instructions = 0, cf_logs = 0, queue_full = 0,
         dual_cf = 0, doorbells = 0, rot_instructions = 0, hmac_starts = 0,
         decode_hits = 0, decode_lookups = 0, page_hits = 0, page_lookups = 0;
  for (const titan::api::RunReport& report : reference) {
    cycles += report.cycles;
    instructions += report.instructions;
    cf_logs += report.cf_logs;
    queue_full += report.queue_full_stalls;
    dual_cf += report.dual_cf_stalls;
    doorbells += report.doorbells;
    rot_instructions += report.rot_instructions;
    hmac_starts += report.rot_hmac_starts;
    decode_hits += report.decode_hits;
    decode_lookups += report.decode_hits + report.decode_misses;
    page_hits += report.host_memory.page_cache_hits;
    page_lookups += report.host_memory.page_cache_hits +
                    report.host_memory.page_cache_misses;
  }
  result.values["soc.cycles"] = cycles;
  result.values["cva6.instructions"] = instructions;
  result.values["cva6.ipc"] = ratio(instructions, cycles);
  result.values["titancfi.cf_logs"] = cf_logs;
  result.values["titancfi.queue_full_share"] = ratio(queue_full, cycles);
  result.values["titancfi.dual_cf_stalls"] = dual_cf;
  result.values["soc.doorbells"] = doorbells;
  result.values["soc.doorbells_per_log"] = ratio(doorbells, cf_logs);
  result.values["ibex.rot_instructions"] = rot_instructions;
  result.values["crypto.hmac_starts"] = hmac_starts;
  result.values["sim.decode_hit_ratio"] = ratio(decode_hits, decode_lookups);
  result.values["sim.page_cache_hit_ratio"] = ratio(page_hits, page_lookups);

  if (!options.trace) return;
  std::vector<double> run_total, render_total;
  for (const std::uint64_t request : traced_requests) {
    run_total.push_back(sum(tracer.durations("api.run_scenario", request)));
    render_total.push_back(sum(tracer.durations("api.render", request)));
  }
  const double run_seconds = median(run_total);
  result.values["api.run_ms"] = 1e3 * run_seconds / count;
  result.values["api.render_us"] = 1e6 * median(render_total) / count;
  result.values["sim.mcycles_per_s"] = cycles / run_seconds / 1e6;
  result.values["soc.host_ns_per_cycle"] = 1e9 * run_seconds / cycles;
  result.values["soc.host_us_per_cf_log"] = ratio(1e6 * run_seconds, cf_logs);
  result.values["trace.overhead_pct"] =
      100.0 * (median(traced_seconds) / median(pass_seconds) - 1.0);

  // Layer probes after the timed window, traced, three rounds per scenario
  // (each round on the next core): construction stages, bare CVA6 on the
  // same image, and the lock-step engine against the event engine (reports
  // must be equal).
  tracer.set_enabled(true);
  double bare_cycles = 0;
  constexpr std::uint64_t kProbe = 1ull << 32;  // request ids of the probes
  for (int round = 0; round < 3; ++round) {
    rotation.move_to(round);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t request = kProbe + i;
      const Scope probe("cosim.probe", request);
      const titan::api::Scenario scenario = [&] {
        const Scope span("api.build");
        return builders[i].build();
      }();
      {
        const Scope span("api.images");
        const titan::rv::Image program = scenario.workload_image();
        const titan::rv::Image firmware = scenario.firmware_image();
      }
      {
        const Scope span("api.make_soc");
        const auto soc = scenario.make_soc();
      }
      {
        const Scope span("cva6.bare");
        const std::uint64_t bare = run_bare(scenario);
        if (round == 0) bare_cycles += static_cast<double>(bare);
      }
      titan::api::RunReport event, lockstep;
      {
        const Scope span("soc.event_run");
        event = titan::api::run_scenario(scenario);
      }
      {
        const Scope span("soc.lockstep_run");
        lockstep = titan::api::run_scenario(
            scenario.with_engine(titan::api::Engine::kLockStep));
      }
      result.check(event == reference[i] && lockstep == reference[i],
                   scenario.name() + ": event/lock-step reports differ");
    }
  }
  tracer.set_enabled(false);
  // Per-scenario medians over the rounds, then summed or averaged over the
  // list.
  const auto probe_median = [&tracer](const char* name, std::uint64_t request) {
    return median(tracer.durations(name, request));
  };
  double build = 0, images = 0, make_soc = 0, bare = 0, event = 0,
         lockstep = 0;
  for (std::size_t i = 0; i < count; ++i) {
    build += probe_median("api.build", kProbe + i);
    images += probe_median("api.images", kProbe + i);
    make_soc += probe_median("api.make_soc", kProbe + i);
    bare += probe_median("cva6.bare", kProbe + i);
    event += probe_median("soc.event_run", kProbe + i);
    lockstep += probe_median("soc.lockstep_run", kProbe + i);
  }
  result.values["api.build_us"] = 1e6 * build / count;
  result.values["api.images_us"] = 1e6 * images / count;
  result.values["api.make_soc_us"] = 1e6 * make_soc / count;
  result.values["cva6.bare_s"] = bare;
  result.values["cva6.bare_share"] = bare / event;
  result.values["soc.event_over_lockstep"] = lockstep / event;
  result.values["soc.cfi_slowdown"] = cycles / bare_cycles;
}

}  // namespace perfbench
