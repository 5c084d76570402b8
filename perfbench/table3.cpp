// table3_sweep: the paper's Table III grid (32 rows) per pass —
// workloads::calibrate per row, then OverheadGrid::slowdown at the three
// firmware latencies — through api::run_sweep on bench_threads() workers.
// One operation is one row; its result reaches the caller when the pass
// returns.  The grid is the paper's, so the seed does not change it.
#include <cmath>
#include <cstdio>

#include "api/api.hpp"
#include "perfbench.hpp"
#include "api/enforce.hpp"

namespace perfbench {
namespace {

struct Row {
  double opt = 0;
  double poll = 0;
  double irq = 0;
};

std::vector<Row> run_pass(const titan::api::OverheadGrid& grid,
                          unsigned threads, std::uint64_t request) {
  const Scope pass_span("api.run_sweep", request);
  titan::api::SweepPlan<Row> plan;
  plan.header = grid.header();
  plan.point = [&grid, request](std::size_t index) {
    const Scope point_span("sim.sweep_point", request);
    titan::workloads::TraceParams params;
    {
      const Scope span("workloads.calibrate");
      params = titan::workloads::calibrate(grid.row(index));
    }
    Row row;
    {
      const Scope span("titancfi.slowdown");
      row.opt =
          grid.slowdown(index, params, titan::workloads::kOptimizedLatency);
      row.poll = grid.slowdown(index, params, titan::workloads::kPollingLatency);
      row.irq = grid.slowdown(index, params, titan::workloads::kIrqLatency);
    }
    return row;
  };
  plan.emit = [](titan::sim::JsonWriter&, const Row&, std::size_t) {};
  titan::sim::SweepCli cli;
  cli.threads = threads;
  titan::api::SweepOutcome<Row> outcome;
  if (titan::api::run_sweep(plan, cli, &outcome) != 0) {
    throw std::runtime_error("table3_sweep: run_sweep failed");
  }
  return outcome.rows;
}

std::string render_rows(const titan::api::OverheadGrid& grid,
                        const std::vector<Row>& rows) {
  std::string text;
  char buffer[128];
  for (std::size_t index = 0; index < rows.size(); ++index) {
    std::snprintf(buffer, sizeof buffer, " %.17g %.17g %.17g\n",
                  rows[index].opt, rows[index].poll, rows[index].irq);
    text += std::string(grid.row(index).name) + buffer;
  }
  return text;
}

}  // namespace

void run_table3_sweep(const Options& options, Result& result) {
  const unsigned threads = bench_threads();
  Tracer& tracer = Tracer::instance();

  // Set-up: grid construction plus one discarded warm-up pass, whose rows
  // become the reference every timed pass must reproduce bit for bit.
  const Clock::time_point setup_start = Clock::now();
  const titan::api::OverheadGrid grid = titan::api::OverheadGrid::table3();
  const std::vector<Row> reference = run_pass(grid, threads, 0);
  result.values["setup_s"] = seconds_since(setup_start);
  const std::string reference_text = render_rows(grid, reference);
  result.digests["table3_sweep/rows"] = digest(reference_text);

  // Timed passes.  A traced run alternates untraced and traced passes, so
  // the two medians give the tracing overhead.
  std::vector<double> pass_seconds;
  std::vector<double> traced_seconds;
  std::vector<std::uint64_t> traced_requests;
  std::vector<double> row_latency;
  std::size_t rows_done = 0;
  const Clock::time_point window = Clock::now();
  for (std::uint64_t pass = 0;
       pass < (options.trace ? 2u : 1u) ||
       seconds_since(window) < options.seconds;
       ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    tracer.set_enabled(traced);
    const Clock::time_point start = Clock::now();
    const std::vector<Row> rows = run_pass(grid, threads, pass + 1);
    const double elapsed = seconds_since(start);
    tracer.set_enabled(false);
    result.check(render_rows(grid, rows) == reference_text,
                 "table3_sweep: pass rows differ from the warm-up pass");
    if (traced) {
      traced_seconds.push_back(elapsed);
      traced_requests.push_back(pass + 1);
      continue;
    }
    pass_seconds.push_back(elapsed);
    rows_done += rows.size();
    // A row's result reaches the caller when run_sweep returns.
    row_latency.insert(row_latency.end(), rows.size(), elapsed);
  }

  result.values["pass_s"] = sum(pass_seconds) / pass_seconds.size();
  result.values["ops_per_s"] = rows_done / sum(pass_seconds);
  result.values["op_p50_ms"] = 1e3 * quantile(row_latency, 0.5);
  result.values["op_p99_ms"] = 1e3 * quantile(row_latency, 0.99);

  // Model accuracy against the paper's own Polling/Optimized columns (the
  // IRQ column is the calibration target), as bench_table3 reports it.
  double poll_error = 0;
  double opt_error = 0;
  int scored = 0;
  for (std::size_t index = 0; index < grid.size(); ++index) {
    const titan::workloads::BenchmarkStats& stats = grid.row(index);
    if (stats.paper_poll > 0) {
      poll_error += std::abs(reference[index].poll - stats.paper_poll) /
                    stats.paper_poll;
      opt_error += stats.paper_opt > 0
                       ? std::abs(reference[index].opt - stats.paper_opt) /
                             stats.paper_opt
                       : 0.0;
      ++scored;
    }
  }
  result.values["table3.poll_mre_pct"] = 100.0 * poll_error / scored;
  result.values["table3.opt_mre_pct"] = 100.0 * opt_error / scored;

  if (!options.trace) return;
  std::vector<double> calibrate_total, calibrate_max, replay_total, busy,
      efficiency, slowest_share;
  for (std::size_t i = 0; i < traced_requests.size(); ++i) {
    const std::uint64_t request = traced_requests[i];
    const std::vector<double> calibrate =
        tracer.durations("workloads.calibrate", request);
    const std::vector<double> points =
        tracer.durations("sim.sweep_point", request);
    calibrate_total.push_back(sum(calibrate));
    calibrate_max.push_back(quantile(calibrate, 1.0));
    replay_total.push_back(sum(tracer.durations("titancfi.slowdown", request)));
    busy.push_back(sum(points));
    efficiency.push_back(busy.back() / (traced_seconds[i] * threads));
    slowest_share.push_back(quantile(points, 1.0) / busy.back());
  }
  result.values["workloads.calibrate_total_s"] = median(calibrate_total);
  result.values["workloads.calibrate_max_s"] = median(calibrate_max);
  result.values["titancfi.replay_total_s"] = median(replay_total);
  result.values["sim.sweep_busy_s"] = median(busy);
  result.values["sim.sweep_efficiency"] = median(efficiency);
  result.values["sim.sweep_slowest_share"] = median(slowest_share);
  result.values["trace.overhead_pct"] =
      100.0 * (median(traced_seconds) / median(pass_seconds) - 1.0);
}

}  // namespace perfbench
