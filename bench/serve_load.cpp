// serve_load — load generator for the hmdiv_serve service layer.
//
// Spins up an in-process serve::Server on an ephemeral loopback port,
// then drives it with pipelined requests over raw TCP sockets: each
// client connection keeps a window of in-flight requests and refills it
// as responses drain, rotating through a fixed set of distinct parameter
// vectors.
//
// The default workload is warm-cache `whatif`; --endpoint uq|mixed and
// --cold-cache change it. Reports QPS and p50/p99 latency and writes
// BENCH_pr7_serve_qps.json (or --out).
//
// Exit is non-zero only on a correctness failure (server error response,
// short read, connect failure).
//
//   serve_load [--seconds S] [--connections N] [--pipeline W]
//              [--distinct K] [--endpoint whatif|uq|mixed] [--mix PCT]
//              [--cold-cache] [--out FILE]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/paper_example.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct ClientStats {
  std::uint64_t responses = 0;
  std::uint64_t errors = 0;
  bool transport_ok = true;
  std::vector<std::uint64_t> latencies_ns;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
  return fd;
}

bool send_fully(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t rc = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
    } else if (rc < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// One client connection: keeps `window` requests in flight, cycling
/// through `requests` (pre-rendered lines). Latency per slot is
/// send-time to the arrival of the matching (FIFO-ordered) response.
void client_loop(std::uint16_t port, const std::vector<std::string>& requests,
                 std::size_t window, Clock::time_point stop_at,
                 ClientStats& stats) {
  const int fd = connect_loopback(port);
  if (fd < 0) {
    stats.transport_ok = false;
    return;
  }

  std::vector<Clock::time_point> in_flight;  // FIFO of send timestamps
  std::size_t head = 0;                      // index of oldest in-flight
  std::size_t next_request = 0;
  std::string batch;
  std::string residue;
  char buffer[64 * 1024];
  bool stopping = false;

  const auto send_batch = [&](std::size_t count) -> bool {
    batch.clear();
    const auto now = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      batch += requests[next_request];
      next_request = (next_request + 1) % requests.size();
      in_flight.push_back(now);
    }
    return send_fully(fd, batch.data(), batch.size());
  };

  if (!send_batch(window)) {
    stats.transport_ok = false;
    ::close(fd);
    return;
  }

  while (head < in_flight.size()) {
    const ssize_t got = ::read(fd, buffer, sizeof buffer);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      stats.transport_ok = false;
      break;
    }
    residue.append(buffer, static_cast<std::size_t>(got));

    std::size_t completed = 0;
    std::size_t from = 0;
    for (;;) {
      const std::size_t nl = residue.find('\n', from);
      if (nl == std::string::npos) break;
      const std::string_view line(residue.data() + from, nl - from);
      if (line.find("\"ok\":true") == std::string_view::npos) ++stats.errors;
      from = nl + 1;
      ++completed;
    }
    residue.erase(0, from);

    if (completed == 0) continue;
    const auto now = Clock::now();
    for (std::size_t i = 0; i < completed; ++i) {
      stats.latencies_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - in_flight[head + i])
              .count()));
    }
    head += completed;
    stats.responses += completed;
    // Periodically compact the FIFO so it stays bounded.
    if (head > 4096) {
      in_flight.erase(in_flight.begin(),
                      in_flight.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }

    if (!stopping && now >= stop_at) stopping = true;
    if (!stopping && !send_batch(completed)) {
      stats.transport_ok = false;
      break;
    }
  }
  ::close(fd);
}

std::uint64_t quantile_ns(std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(pos + 0.5)];
}

struct RunConfig {
  double seconds = 1.5;
  std::size_t connections = 2;
  std::size_t window = 64;
  std::size_t distinct = 64;
  std::string endpoint = "whatif";  // whatif | uq | mixed
  std::size_t mix_pct = 10;         // % of uq lines under "mixed"
  bool cold_cache = false;
};

struct RunResult {
  double elapsed = 0.0;
  double qps = 0.0;
  std::uint64_t responses = 0;
  std::uint64_t errors = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  bool transport_ok = true;
};

std::vector<std::string> make_requests(const RunConfig& config) {
  std::vector<std::string> requests;
  requests.reserve(config.distinct);
  for (std::size_t k = 0; k < config.distinct; ++k) {
    const bool uq_line =
        config.endpoint == "uq" ||
        (config.endpoint == "mixed" && (k % 100) < config.mix_pct);
    std::string line;
    if (uq_line) {
      // Small draw count: the point is request throughput, not posterior
      // resolution.
      line = "{\"op\":\"uq\",\"id\":";
      line += std::to_string(k);
      line += ",\"params\":{\"draws\":128,\"seed\":";
      line += std::to_string(k);
      line += ",\"credibility\":0.9}}\n";
    } else {
      const double reader = 0.5 + 0.03 * static_cast<double>(k);
      const double machine = 0.8 + 0.01 * static_cast<double>(k % 16);
      line = "{\"op\":\"whatif\",\"id\":";
      line += std::to_string(k);
      line += ",\"params\":{\"reader_factor\":";
      line += std::to_string(reader);
      line += ",\"machine_factor\":";
      line += std::to_string(machine);
      line += "}}\n";
    }
    requests.push_back(std::move(line));
  }
  return requests;
}

/// Builds a fresh Service+Server for `config`, warms it with one pass
/// over the distinct requests, runs the timed window, and aggregates.
RunResult run_once(const RunConfig& config) {
  using namespace hmdiv;
  RunResult result;

  serve::ServiceOptions service_options;
  service_options.max_concurrent = config.connections;
  // The admission queue must hold a full pipeline burst from every
  // connection, and queue wait must not eat the request deadline.
  service_options.max_queue = config.connections * config.window + 64;
  service_options.default_deadline_ms = 60'000;
  if (config.cold_cache) {
    service_options.whatif_cache_capacity = 0;
    service_options.sweep_cache_capacity = 0;
    service_options.minimise_cache_capacity = 0;
    service_options.uq_cache_capacity = 0;
  }
  serve::Service service(core::paper::example_model(),
                         core::paper::trial_profile(),
                         core::paper::field_profile(), service_options);
  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.max_connections = config.connections + 4;
  serve::Server server(service, server_options);
  server.start();

  const std::vector<std::string> requests = make_requests(config);

  // Warm-up: one pass over every distinct request. With caches on this
  // fills them so the timed window measures the hit path; with
  // --cold-cache it still warms the workspace arenas.
  {
    ClientStats warm;
    client_loop(server.port(), requests, requests.size(),
                Clock::now() - std::chrono::seconds(1), warm);
    if (!warm.transport_ok || warm.errors != 0 ||
        warm.responses != requests.size()) {
      std::cerr << "serve_load: warm-up failed (responses=" << warm.responses
                << " errors=" << warm.errors << ")\n";
      server.shutdown();
      result.transport_ok = false;
      result.errors = warm.errors != 0 ? warm.errors : 1;
      return result;
    }
  }

  const auto t0 = Clock::now();
  const auto stop_at =
      t0 + std::chrono::microseconds(static_cast<long>(config.seconds * 1e6));
  std::vector<ClientStats> stats(config.connections);
  std::vector<std::thread> clients;
  clients.reserve(config.connections);
  for (std::size_t c = 0; c < config.connections; ++c) {
    clients.emplace_back(client_loop, server.port(), std::cref(requests),
                         config.window, stop_at, std::ref(stats[c]));
  }
  for (auto& t : clients) t.join();
  result.elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  server.shutdown();

  std::vector<std::uint64_t> latencies;
  for (auto& s : stats) {
    result.responses += s.responses;
    result.errors += s.errors;
    result.transport_ok = result.transport_ok && s.transport_ok;
    latencies.insert(latencies.end(), s.latencies_ns.begin(),
                     s.latencies_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  result.qps = result.elapsed > 0.0
                   ? static_cast<double>(result.responses) / result.elapsed
                   : 0.0;
  result.p50_ns = quantile_ns(latencies, 0.50);
  result.p99_ns = quantile_ns(latencies, 0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "serve_load: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seconds") {
      config.seconds = std::stod(value());
    } else if (arg == "--connections") {
      config.connections = std::stoul(value());
    } else if (arg == "--pipeline") {
      config.window = std::stoul(value());
    } else if (arg == "--distinct") {
      config.distinct = std::stoul(value());
    } else if (arg == "--endpoint") {
      config.endpoint = value();
      if (config.endpoint != "whatif" && config.endpoint != "uq" &&
          config.endpoint != "mixed") {
        std::cerr << "serve_load: --endpoint must be whatif, uq or mixed\n";
        return 2;
      }
    } else if (arg == "--mix") {
      config.mix_pct = std::min<std::size_t>(100, std::stoul(value()));
    } else if (arg == "--cold-cache") {
      config.cold_cache = true;
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::cerr << "serve_load: unknown flag '" << arg << "'\n";
      return 2;
    }
  }
  config.connections = std::max<std::size_t>(1, config.connections);
  config.window = std::max<std::size_t>(1, config.window);
  config.distinct = std::max<std::size_t>(1, config.distinct);

  hmdiv::obs::set_enabled(true);

  if (out_path.empty()) out_path = "BENCH_pr7_serve_qps.json";

  const RunResult r = run_once(config);

  char json[1024];
  std::snprintf(json, sizeof json,
                "{\"bench\":\"pr7_serve_qps\",\"endpoint\":\"%s\","
                "\"connections\":%zu,\"pipeline\":%zu,\"distinct\":%zu,"
                "\"cold_cache\":%s,"
                "\"seconds\":%.3f,\"responses\":%llu,\"errors\":%llu,"
                "\"qps\":%.0f,\"p50_ns\":%llu,\"p99_ns\":%llu,"
                "\"target_qps\":50000,\"met_target\":%s}",
                config.endpoint.c_str(), config.connections, config.window,
                config.distinct, config.cold_cache ? "true" : "false",
                r.elapsed,
                static_cast<unsigned long long>(r.responses),
                static_cast<unsigned long long>(r.errors), r.qps,
                static_cast<unsigned long long>(r.p50_ns),
                static_cast<unsigned long long>(r.p99_ns),
                r.qps >= 50000.0 ? "true" : "false");
  std::cout << json << "\n";
  {
    std::ofstream out(out_path);
    out << json << "\n";
  }

  std::printf("serve_load: %llu responses in %.2fs over %zu conns "
              "(pipeline %zu): %.0f QPS, p50 %.1fus, p99 %.1fus\n",
              static_cast<unsigned long long>(r.responses), r.elapsed,
              config.connections, config.window, r.qps,
              static_cast<double>(r.p50_ns) / 1e3,
              static_cast<double>(r.p99_ns) / 1e3);

  if (!r.transport_ok || r.errors != 0 || r.responses == 0) {
    std::cerr << "serve_load: FAILED (transport_ok=" << r.transport_ok
              << " errors=" << r.errors << ")\n";
    return 1;
  }
  return 0;
}
