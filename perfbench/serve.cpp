// serve_registry: an in-process serve::Server + ScenarioService (lazy warm
// start, titand's default warm-up cycle) on loopback, driven by a closed
// loop of bench_threads() connections.  Request i of the seeded sequence is
// a `run` of a registry name drawn uniformly (~90%) or a `run` of a `spec`
// for a never-seen random_callgraph (~10%).  The server sees only the
// request lines; every response must byte-equal the batch run_scenario
// render of the same scenario.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "api/api.hpp"
#include "perfbench.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/json.hpp"
#include "api/enforce.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kBlock = 256;  // requests per "pass" block
/// Fixed sequence for the exact /metrics counters, independent of --seed.
constexpr std::uint64_t kCounterSeed = 0x7e57;
constexpr std::uint64_t kCounterRequests = 256;
constexpr std::uint64_t kMixRequests = 200;  // in-process layer timing

/// Blocking loopback client speaking line-delimited JSON.
class Client {
 public:
  explicit Client(std::uint16_t port) : fd_(socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 || connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) != 0) {
      throw std::runtime_error("serve_registry: cannot connect to server");
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line and read its response line (without the LF).
  std::string exchange(const std::string& line) {
    for (std::size_t sent = 0; sent < line.size();) {
      const ssize_t n =
          send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("serve_registry: send failed");
      sent += static_cast<std::size_t>(n);
    }
    std::size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[16384];
      const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("serve_registry: connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string response = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return response;
  }

  /// Whole reply to a raw HTTP request (the server closes after it).
  std::string http(const std::string& request) {
    send(fd_, request.data(), request.size(), MSG_NOSIGNAL);
    std::string out;
    char chunk[16384];
    for (ssize_t n = recv(fd_, chunk, sizeof chunk, 0); n > 0;
         n = recv(fd_, chunk, sizeof chunk, 0)) {
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_;
  std::string buffer_;
};

/// One generated request: a registry name or a fresh random_callgraph spec.
struct Draw {
  bool spec = false;
  std::string name;  ///< Scenario name the response must carry.
  std::uint64_t spec_seed = 0;
  std::string line;  ///< Request frame, LF-terminated.
};

titan::api::Scenario spec_scenario(std::uint64_t spec_seed) {
  return titan::api::ScenarioBuilder()
      .name("spec/" + std::to_string(spec_seed))
      .workload(titan::api::Workload::random_callgraph(spec_seed))
      .build();
}

Draw draw(std::uint64_t seed, std::uint64_t index,
          const std::vector<std::string>& names) {
  const std::uint64_t h = mix(mix(seed) ^ index);
  Draw out;
  out.spec = h % 10 == 0;
  std::string frame = "{\"schema_version\":1,\"id\":\"" +
                      std::to_string(index) + "\",\"op\":\"run\",";
  if (out.spec) {
    out.spec_seed = mix(h);
    const titan::api::Scenario scenario = spec_scenario(out.spec_seed);
    out.name = scenario.name();
    frame += "\"spec\":\"" + titan::sim::json_escape(scenario.serialize()) +
             "\"}\n";
  } else {
    out.name = names[(h >> 8) % names.size()];
    frame += "\"scenario\":\"" + out.name + "\"}\n";
  }
  out.line = std::move(frame);
  return out;
}

/// A server with its service and metrics, ready on an ephemeral port.
struct Daemon {
  titan::serve::MetricsRegistry metrics;
  titan::serve::ScenarioService service{{}, metrics};  // lazy warm start
  titan::serve::Server server;

  explicit Daemon(unsigned threads)
      : server(
            [threads] {
              titan::serve::Server::Options options;
              options.threads = threads;
              return options;
            }(),
            service) {
    server.start();
    server.set_ready();
  }
  ~Daemon() { server.stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::string scrape() {
    return Client(server.port())
        .http("GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n");
  }
};

/// Sum of every sample of `name` (all label sets) in a Prometheus scrape.
double scraped(const std::string& text, const std::string& name) {
  double total = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(name, 0) != 0) continue;
    const std::size_t after = name.size();
    if (after < line.size() && line[after] != ' ' && line[after] != '{') {
      continue;
    }
    total += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

struct Sample {
  bool traced = false;
  bool spec = false;
  double latency = 0;    ///< Seconds, send to full response line.
  double completed = 0;  ///< Seconds since the window opened.
};

struct SpecReply {
  std::uint64_t index = 0;
  std::uint64_t spec_seed = 0;
  std::string response;
};

/// Run body(0..count-1) on `count` threads, join them all, and rethrow the
/// first exception any of them raised.
template <typename Body>
void run_threads(unsigned count, const Body& body) {
  std::mutex mutex;
  std::exception_ptr first;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < count; ++c) {
    threads.emplace_back([&, c] {
      try {
        body(c);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (first) std::rethrow_exception(first);
}

std::string expected_line(std::uint64_t index, const std::string& name,
                          const std::string& report) {
  return titan::api::render_run_response(std::to_string(index), name,
                                         /*warm_start=*/true, report);
}

}  // namespace

void run_serve_registry(const Options& options, Result& result) {
  const unsigned threads = bench_threads();
  const titan::api::ScenarioRegistry& registry =
      titan::api::ScenarioRegistry::global();
  const titan::api::ReportSchema schema;
  std::vector<std::string> names;
  for (const std::string_view name : registry.names()) names.emplace_back(name);

  // Batch witness (not set-up: the checker's own work): every registry
  // name's canonical render.
  std::map<std::string, std::string> batch;
  std::string all_renders;
  for (const std::string& name : names) {
    batch[name] = schema.render(titan::api::run_scenario(*registry.find(name)));
    all_renders += name + "\n" + batch[name] + "\n";
  }
  result.digests["serve_registry/registry_batch"] = digest(all_renders);
  const std::map<std::string, std::string>& witness = batch;

  // Set-up, three times: start a server, connect the clients, and warm every
  // registry name once (the discarded warm-up pass).  The last one serves.
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<double> setup_seconds;
  for (int setup = 0; setup < 3; ++setup) {
    clients.clear();
    daemon.reset();
    const Clock::time_point start = Clock::now();
    daemon = std::make_unique<Daemon>(threads);
    for (unsigned c = 0; c < threads; ++c) {
      clients.push_back(std::make_unique<Client>(daemon->server.port()));
    }
    std::vector<std::uint64_t> mismatches(threads, 0);
    run_threads(threads, [&](unsigned c) {
      for (std::size_t i = c; i < names.size(); i += threads) {
        const std::string line = "{\"schema_version\":1,\"id\":\"" +
                                 std::to_string(i) +
                                 "\",\"op\":\"run\",\"scenario\":\"" +
                                 names[i] + "\"}\n";
        if (clients[c]->exchange(line) !=
            expected_line(i, names[i], witness.at(names[i]))) {
          ++mismatches[c];
        }
      }
    });
    setup_seconds.push_back(seconds_since(start));
    for (unsigned c = 0; c < threads; ++c) {
      result.check(mismatches[c] == 0, "serve_registry: warm-up reply differs");
    }
  }
  result.values["setup_s"] = median(setup_seconds);

  // Timed window: closed loop, each connection sends its next request once
  // the previous reply has arrived.  A traced run records a span for the
  // requests of every other block of kBlock.
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(options.trace);
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<Sample>> samples(threads);
  std::vector<std::vector<SpecReply>> spec_replies(threads);
  std::vector<std::uint64_t> attempted(threads, 0), failed(threads, 0);
  const Clock::time_point window = Clock::now();
  run_threads(threads, [&](unsigned c) {
    do {
      const std::uint64_t index = next.fetch_add(1);
      const Draw request = draw(options.seed, index, names);
      const bool traced = options.trace && (index / kBlock) % 2 == 1;
      const Clock::time_point start = Clock::now();
      std::string response;
      {
        std::optional<Scope> span;
        if (traced) span.emplace("serve.request", index + 1);
        response = clients[c]->exchange(request.line);
      }
      samples[c].push_back({traced, request.spec, seconds_since(start),
                            seconds_since(window)});
      if (request.spec) {
        spec_replies[c].push_back(
            {index, request.spec_seed, std::move(response)});
        continue;
      }
      ++attempted[c];
      if (response != expected_line(index, request.name,
                                    witness.at(request.name))) {
        ++failed[c];
      }
    } while (seconds_since(window) < options.seconds);
  });
  tracer.set_enabled(false);

  std::vector<Sample> all;
  for (unsigned c = 0; c < threads; ++c) {
    all.insert(all.end(), samples[c].begin(), samples[c].end());
    result.attempted += attempted[c];
    result.failed += failed[c];
  }
  if (result.failed != 0) {
    std::cerr << "perfbench: " << result.failed
              << " registry replies differ from the batch render\n";
  }
  std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
    return a.completed < b.completed;
  });
  std::vector<double> latency, untraced, traced, warm, spec;
  for (const Sample& sample : all) {
    latency.push_back(sample.latency);
    (sample.traced ? traced : untraced).push_back(sample.latency);
    (sample.spec ? spec : warm).push_back(sample.latency);
  }
  std::vector<double> block_seconds;
  for (std::size_t end = kBlock; end < all.size(); end += kBlock) {
    block_seconds.push_back(all[end].completed - all[end - kBlock].completed);
  }
  result.values["pass_s"] = sum(block_seconds) / block_seconds.size();
  result.values["ops_per_s"] = all.size() / all.back().completed;
  result.values["op_p50_ms"] = 1e3 * quantile(latency, 0.5);
  result.values["op_p99_ms"] = 1e3 * quantile(latency, 0.99);
  result.values["serve.latency_samples"] = all.size();
  std::cout << "serve_registry: " << all.size() << " requests ("
            << spec.size() << " spec) on " << threads << " connections\n";

  const std::string scrape = daemon->scrape();
  const double server_mean_us =
      scraped(scrape, "titand_request_latency_microseconds_sum") /
      scraped(scrape, "titand_request_latency_microseconds_count");
  clients.clear();
  daemon.reset();

  // Spec replies, checked after the window against a batch run of the same
  // spec.
  for (const std::vector<SpecReply>& replies : spec_replies) {
    for (const SpecReply& reply : replies) {
      const titan::api::Scenario scenario = spec_scenario(reply.spec_seed);
      result.check(
          reply.response ==
              expected_line(reply.index, scenario.name(),
                            schema.render(titan::api::run_scenario(scenario))),
          "serve_registry: spec reply differs from the batch render");
    }
  }

  if (!options.trace) return;
  result.values["serve.warm_p50_ms"] = 1e3 * quantile(warm, 0.5);
  result.values["serve.warm_p99_ms"] = 1e3 * quantile(warm, 0.99);
  result.values["serve.spec_p50_ms"] = 1e3 * quantile(spec, 0.5);
  result.values["serve.spec_p99_ms"] = 1e3 * quantile(spec, 0.99);
  result.values["trace.overhead_pct"] =
      100.0 * (median(traced) / median(untraced) - 1.0);
  result.values["serve.server_mean_us"] = server_mean_us;
  result.values["serve.transport_share"] =
      1.0 - server_mean_us / (1e6 * sum(latency) / latency.size());

  // The first kMixRequests requests of the same sequence, timed in-process
  // layer by layer (a fresh checkpoint cache, so first sights capture as the
  // lazy server does).
  tracer.set_enabled(true);
  titan::api::CheckpointCache cache;
  for (std::uint64_t index = 0; index < kMixRequests; ++index) {
    const Draw request = draw(options.seed, index, names);
    const Scope mix_span("serve.mix", index + 1);
    titan::api::Request parsed;
    {
      const Scope span("api.wire_parse");
      parsed = titan::api::parse_request(request.line);
    }
    std::optional<titan::api::Scenario> scenario;
    if (parsed.spec.empty()) {
      scenario = *registry.find(parsed.scenario);
    } else {
      const Scope span("api.from_serialized");
      scenario = titan::api::ScenarioBuilder::from_serialized(parsed.spec);
    }
    std::shared_ptr<const titan::sim::Snapshot> snapshot =
        cache.find(*scenario);
    if (snapshot == nullptr) {
      const Scope span("api.capture");
      snapshot = titan::api::capture_checkpoint(
          *scenario, titan::api::kDefaultWarmupCycle);
      cache.insert(snapshot);
    }
    titan::api::RunReport report;
    {
      const Scope span("api.warm_run");
      report = titan::api::run_scenario(scenario->with_warm_start(snapshot));
    }
    std::string text;
    {
      const Scope span("api.render");
      text = schema.render(report);
    }
    std::string line;
    {
      const Scope span("api.wire_render");
      line = titan::api::render_run_response(parsed.id, scenario->name(),
                                             true, text);
    }
    if (!request.spec) {
      result.check(text == witness.at(request.name),
                   "serve_registry: in-process warm run differs");
    }
  }
  tracer.set_enabled(false);
  const auto us = [&tracer](const char* name) {
    return 1e6 * median(tracer.durations(name));
  };
  result.values["api.wire_parse_us"] = us("api.wire_parse");
  result.values["api.from_serialized_us"] = us("api.from_serialized");
  result.values["api.capture_us"] = us("api.capture");
  result.values["api.warm_run_us"] = us("api.warm_run");
  result.values["api.render_us"] = us("api.render");
  result.values["api.wire_render_us"] = us("api.wire_render");
  result.values["serve.json_share"] =
      (us("api.wire_parse") + us("api.render") + us("api.wire_render")) /
      (1e3 * result.values["op_p50_ms"]);

  // Exact server counters for a fixed request sequence on a fresh server,
  // one connection, one request at a time.
  {
    Daemon fresh(threads);
    {
      Client client(fresh.server.port());
      for (std::uint64_t index = 0; index < kCounterRequests; ++index) {
        const Draw request = draw(kCounterSeed, index, names);
        const std::string response = client.exchange(request.line);
        result.check(response.find("\"ok\":true") != std::string::npos,
                     "serve_registry: counter-sequence request failed");
      }
    }
    const std::string counters = fresh.scrape();
    result.values["serve.cache_hits"] =
        scraped(counters, "titand_checkpoint_cache_hits_total");
    result.values["serve.cache_misses"] =
        scraped(counters, "titand_checkpoint_cache_misses_total");
    result.values["serve.sim_cycles_total"] =
        scraped(counters, "titand_sim_cycles_total");
    result.values["serve.shed"] = scraped(counters, "titand_shed_total");
    result.values["serve.errors"] = scraped(counters, "titand_errors_total");
  }
}

}  // namespace perfbench
