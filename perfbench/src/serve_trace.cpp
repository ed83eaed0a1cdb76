// serve_trace: a seeded NDJSON request trace, recorded once and replayed
// against a spawned `hmdiv_serve --example` at its shipped defaults over
// two connections from one generator thread. The mix: 80% whatif over
// 64 hot keys (cache hits); 10% whatif and compare with unique
// parameters (cheap misses); 5% sweep and minimise over more keys than
// their caches hold; 4.9% uq with unique seeds; 0.1% reload, which takes
// the exclusive lock and clears the caches. Serve parsing, transport and
// caches set the median; core compute and head-of-line blocking set the
// tail. No bootstrap and no fan-out runs here.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/model_io.hpp"
#include "core/paper_example.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = hmdiv::core;
namespace serve = hmdiv::serve;

namespace {

constexpr std::array<const char*, kOpCount> kOpNames = {
    "whatif_hot", "whatif_unique", "compare_unique", "sweep",
    "minimise",   "uq",            "reload"};
constexpr std::array<const char*, kOpCount> kOpEndpoints = {
    "whatif", "whatif", "compare", "sweep", "minimise", "uq", "reload"};

constexpr std::size_t kHotKeys = 64;
/// Distinct sweep / minimise keys: several times the daemon's default
/// sweep (64) and minimise (128) cache capacities.
constexpr std::uint64_t kGridKeys = 512;

std::string number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string whatif_params(double reader, double machine, bool field) {
  std::string out = "{\"reader_factor\":" + number(reader) +
                    ",\"machine_factor\":" + number(machine);
  if (field) out += ",\"profile\":\"field\"";
  return out + "}";
}

std::string reload_params() {
  std::ostringstream model;
  std::ostringstream trial;
  std::ostringstream field;
  core::write_model(model, core::paper::example_model());
  core::write_profile(trial, core::paper::trial_profile());
  core::write_profile(field, core::paper::field_profile());
  return "{\"model\":" + json_string(model.str()) +
         ",\"trial\":" + json_string(trial.str()) +
         ",\"field\":" + json_string(field.str()) + "}";
}

/// One non-blocking loopback connection of the load generator.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> fifo;  ///< replay positions awaiting a reply

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  void open(int port) {
    fd = connect_loopback(port);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  void flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        throw std::runtime_error("send to daemon failed");
      }
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
  }
  /// Reads what is available; calls on_line(position, line) per reply.
  template <typename F>
  void drain(F&& on_line) {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n > 0) {
        in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error("daemon closed the connection");
    }
    std::size_t start = 0;
    for (std::size_t nl = in.find('\n'); nl != std::string::npos;
         nl = in.find('\n', start)) {
      if (fifo.empty()) throw std::runtime_error("unsolicited reply");
      on_line(fifo.front(), std::string_view(in).substr(start, nl - start));
      fifo.pop_front();
      start = nl + 1;
    }
    in.erase(0, start);
  }
};

/// Sleeps until `until` or until a socket is ready. Long waits go to
/// ppoll; the last stretch spins so sends leave on time.
void wait_until(std::array<Conn, 2>& conns, Clock::time_point until) {
  const auto left = until - Clock::now();
  if (left < std::chrono::microseconds(60)) return;
  std::array<pollfd, 2> fds{};
  for (std::size_t c = 0; c < 2; ++c) {
    fds[c] = {conns[c].fd,
              static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT)),
              0};
  }
  const auto sleep =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          left - std::chrono::microseconds(40));
  timespec ts{static_cast<time_t>(sleep.count() / 1'000'000'000),
              static_cast<long>(sleep.count() % 1'000'000'000)};
  ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

std::string reload_request() {
  return "{\"op\":\"reload\",\"id\":0,\"params\":" + reload_params() + "}";
}

const char* op_endpoint(Op op) {
  return kOpEndpoints[static_cast<std::size_t>(op)];
}

std::vector<TraceEntry> record_trace(std::uint64_t seed, std::size_t requests,
                                     const std::string& path) {
  InputRng rng(seed ^ 0x5E27Eu);
  std::vector<std::string> hot;
  for (std::size_t k = 0; k < kHotKeys; ++k) {
    hot.push_back(whatif_params(0.5 + 0.001 * static_cast<double>(rng.below(1000)),
                                0.2 + 0.001 * static_cast<double>(rng.below(1000)),
                                rng.below(2) == 1));
  }
  const std::string reload = reload_params();
  std::vector<TraceEntry> trace;
  trace.reserve(requests);
  // Each block of 1000 requests holds the mix exactly, shuffled, with the
  // reload last, so every seed asks for the same amount of work.
  constexpr std::array<std::pair<Op, std::size_t>, kOpCount> kMix = {{
      {Op::whatif_hot, 800}, {Op::whatif_unique, 50}, {Op::compare_unique, 50},
      {Op::sweep, 25}, {Op::minimise, 25}, {Op::uq, 49}, {Op::reload, 1}}};
  std::vector<Op> block;
  for (const auto& [op, count] : kMix) block.insert(block.end(), count, op);
  for (std::size_t i = 0; i < requests; ++i) {
    if (i % block.size() == 0) {
      for (std::size_t j = block.size() - 2; j > 0; --j) {
        std::swap(block[j], block[rng.below(j + 1)]);
      }
    }
    TraceEntry e;
    e.op = block[i % block.size()];
    e.conn = static_cast<std::uint8_t>(i % 2);
    std::string params;
    switch (e.op) {
      case Op::whatif_hot:
        params = hot[rng.below(kHotKeys)];
        break;
      case Op::whatif_unique:
        params = whatif_params(0.5 + rng.uniform(), 0.2 + rng.uniform(),
                               rng.below(2) == 1);
        break;
      case Op::compare_unique:
        params = "{\"scenarios\":[{\"name\":\"a\",\"machine_factor\":" +
                 number(0.2 + rng.uniform()) +
                 "},{\"name\":\"b\",\"reader_factor\":" +
                 number(0.5 + rng.uniform()) + "}]}";
        break;
      case Op::sweep:
        params = "{\"lo\":" + number(-4.0 - 0.001 * static_cast<double>(
                                                rng.below(kGridKeys))) +
                 ",\"hi\":4}";
        break;
      case Op::minimise:
        params = "{\"cost_fn\":" +
                 number(400.0 + static_cast<double>(rng.below(kGridKeys))) +
                 ",\"cost_fp\":20}";
        break;
      case Op::uq:
        params = "{\"seed\":" + std::to_string(rng.next() >> 12) + "}";
        break;
      case Op::reload:
        params = reload;
        break;
    }
    e.line = "{\"op\":\"" + std::string(op_endpoint(e.op)) +
             "\",\"id\":" + std::to_string(i + 1) + ",\"params\":" + params +
             "}";
    trace.push_back(std::move(e));
  }
  std::ofstream out(path);
  for (const TraceEntry& e : trace) {
    out << "{\"op\":\"" << kOpNames[static_cast<std::size_t>(e.op)]
        << "\",\"conn\":" << int{e.conn}
        << ",\"request\":" << e.line << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write trace " + path);
  return trace;
}

std::vector<TraceEntry> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read trace " + path);
  std::vector<TraceEntry> trace;
  std::string line;
  const std::string_view request_key = ",\"request\":";
  while (std::getline(in, line)) {
    TraceEntry e;
    const std::size_t op_end = line.find('"', 7);
    const std::size_t conn_at = line.find("\"conn\":");
    const std::size_t request_at = line.find(request_key);
    if (line.rfind("{\"op\":\"", 0) != 0 || op_end == std::string::npos ||
        conn_at == std::string::npos || request_at == std::string::npos ||
        line.back() != '}') {
      throw std::runtime_error("malformed trace line: " + line.substr(0, 80));
    }
    const std::string op = line.substr(7, op_end - 7);
    const auto found = std::find_if(kOpNames.begin(), kOpNames.end(),
                                    [&](const char* n) { return op == n; });
    if (found == kOpNames.end()) throw std::runtime_error("unknown op " + op);
    e.op = static_cast<Op>(found - kOpNames.begin());
    e.conn = static_cast<std::uint8_t>(line[conn_at + 7] - '0');
    if (e.conn > 1) throw std::runtime_error("bad connection in trace");
    const std::size_t from = request_at + request_key.size();
    e.line = line.substr(from, line.size() - 1 - from);
    trace.push_back(std::move(e));
  }
  return trace;
}

Replay replay_closed(int port, const std::vector<TraceEntry>& trace,
                     std::size_t window) {
  std::array<Conn, 2> conns;
  for (Conn& c : conns) c.open(port);
  std::array<std::vector<std::size_t>, 2> order;
  for (std::size_t i = 0; i < trace.size(); ++i) order[trace[i].conn].push_back(i);
  std::array<std::size_t, 2> next{0, 0};
  Replay r;
  r.latency_us.resize(trace.size());
  r.replies.resize(trace.size());
  std::vector<Clock::time_point> sent(trace.size());
  std::size_t received = 0;
  const Clock::time_point start = Clock::now();
  while (received < trace.size()) {
    for (std::size_t c = 0; c < 2; ++c) {
      Conn& conn = conns[c];
      while (conn.fifo.size() < window && next[c] < order[c].size()) {
        const std::size_t i = order[c][next[c]++];
        conn.out += trace[i].line;
        conn.out += '\n';
        conn.fifo.push_back(i);
        sent[i] = Clock::now();
      }
      conn.flush();
    }
    std::array<pollfd, 2> fds{};
    for (std::size_t c = 0; c < 2; ++c) {
      fds[c] = {conns[c].fd,
                static_cast<short>(POLLIN |
                                   (conns[c].out.empty() ? 0 : POLLOUT)),
                0};
    }
    if (::poll(fds.data(), fds.size(), 10'000) <= 0) {
      throw std::runtime_error("daemon stopped answering");
    }
    const Clock::time_point now = Clock::now();
    for (Conn& conn : conns) {
      conn.drain([&](std::size_t i, std::string_view reply) {
        r.latency_us[i] = us_between(sent[i], now);
        r.replies[i] = std::string(reply);
        ++received;
      });
    }
  }
  r.wall_s = seconds_since(start);
  return r;
}

Replay replay_open(int port, const std::vector<TraceEntry>& trace,
                   std::size_t first, std::size_t count, double rate) {
  std::array<Conn, 2> conns;
  for (Conn& c : conns) c.open(port);
  Replay r;
  r.latency_us.resize(count);
  r.lag_us.resize(count);
  r.replies.resize(count);
  std::vector<std::size_t> outstanding_at_send(count);
  const auto interval = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const auto due = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       interval * static_cast<double>(k));
  };
  std::size_t next = 0;
  std::size_t received = 0;
  Clock::time_point give_up = Clock::time_point::max();
  while (received < count) {
    Clock::time_point now = Clock::now();
    for (; next < count && due(next) <= now; ++next) {
      const TraceEntry& e = trace[(first + next) % trace.size()];
      Conn& conn = conns[e.conn];
      conn.out += e.line;
      conn.out += '\n';
      conn.fifo.push_back(next);
      r.lag_us[next] = us_between(due(next), now);
      outstanding_at_send[next] = next - received;
    }
    for (Conn& conn : conns) conn.flush();
    now = Clock::now();
    for (Conn& conn : conns) {
      conn.drain([&](std::size_t k, std::string_view reply) {
        r.latency_us[k] = us_between(due(k), now);
        r.replies[k] = std::string(reply);
        ++received;
      });
    }
    if (next == count) {
      if (give_up == Clock::time_point::max()) {
        give_up = now + std::chrono::seconds(30);
      }
      if (now > give_up) throw std::runtime_error("replies stopped arriving");
      wait_until(conns, now + std::chrono::milliseconds(5));
    } else {
      wait_until(conns, due(next));
    }
  }
  r.start = start;
  r.rate = rate;
  r.wall_s = seconds_since(start);
  // The backlog grows when the requests in flight at send time keep
  // climbing: compare the last quarter of the phase with the second.
  if (count >= 64) {
    const auto mean_between = [&](std::size_t a, std::size_t b) {
      double total = 0.0;
      for (std::size_t k = a; k < b; ++k) {
        total += static_cast<double>(outstanding_at_send[k]);
      }
      return total / static_cast<double>(b - a);
    };
    r.backlog_grew = mean_between(3 * count / 4, count) >
                     2.0 * mean_between(count / 4, count / 2) + 8.0;
  }
  return r;
}

ReplyTally tally_replies(const std::vector<std::string>& replies) {
  ReplyTally t;
  for (const std::string& reply : replies) {
    if (reply.find("\"ok\":true") != std::string::npos) {
      ++t.ok;
    } else {
      ++t.errors;
      if (reply.find("\"code\":\"shed\"") != std::string::npos) ++t.shed;
      if (reply.find("\"code\":\"deadline_exceeded\"") != std::string::npos) {
        ++t.deadline_exceeded;
      }
    }
    if (reply.find("\"cached\":true") != std::string::npos) {
      ++t.cache_lookups;
      ++t.cache_hits;
    } else if (reply.find("\"cached\":false") != std::string::npos) {
      ++t.cache_lookups;
    }
  }
  return t;
}

void check_sampled_replies(const std::vector<TraceEntry>& trace,
                           std::size_t first, const Replay& replay,
                           std::uint64_t seed, std::size_t sample,
                           Result& result) {
  serve::Service service(core::paper::example_model(),
                         core::paper::trial_profile(),
                         core::paper::field_profile());
  serve::RequestScratch scratch;
  InputRng pick(seed ^ 0xC4EC4u);
  std::string expected;
  const std::size_t n = std::min(sample, replay.replies.size());
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t k = pick.below(replay.replies.size());
    expected.clear();
    service.handle_line(trace[(first + k) % trace.size()].line, scratch,
                        expected);
    if (!expected.empty() && expected.back() == '\n') expected.pop_back();
    if (const std::string why = check_reply(replay.replies[k], expected);
        !why.empty()) {
      result.fail(why);
    }
  }
}

Result run_serve_trace(const Context& ctx) {
  Result result;
  const std::string path = ctx.out_dir + "/serve_trace.ndjson";
  (void)record_trace(ctx.seed, 40'000, path);
  const std::vector<TraceEntry> trace = load_trace(path);
  const std::string reload = reload_request();

  // Set-up: spawn until the daemon answers its first request.
  Daemon daemon;
  const std::vector<double> setup = quiet_samples(
      [&] {
        std::vector<double> group;
        for (int i = 0; i < 15; ++i) {
          daemon.stop();
          const Clock::time_point start = Clock::now();
          daemon.start(ctx.serve_bin(), {"--example"});
          LineClient client;
          client.connect(daemon.port());
          const std::string health =
              client.call("{\"op\":\"health\",\"id\":0}");
          group.push_back(seconds_since(start));
          if (health.find("\"ok\":true") == std::string::npos) {
            result.fail("health check failed: " + health);
          }
        }
        return group;
      },
      15, 0.0, 5.0, result);

  // Capacity passes: the whole trace, as fast as the daemon answers.
  // Each starts from empty caches, so every pass does the same work.
  LineClient control;
  control.connect(daemon.port());
  const auto pass = [&] {
    if (control.call(reload).find("\"ok\":true") == std::string::npos) {
      result.fail("reload before a pass failed");
    }
    Replay r = replay_closed(daemon.port(), trace, kCapacityWindow);
    result.attempted += trace.size();
    const std::uint64_t errors = tally_replies(r.replies).errors;
    for (std::uint64_t e = 0; e < errors; ++e) {
      result.fail("error reply during a capacity pass");
    }
    return r;
  };
  // The first pass warms the daemon up; its replies are checked.
  check_sampled_replies(trace, 0, pass(), ctx.seed, 400, result);
  const std::vector<double> job = quiet_samples(
      [&]() -> std::vector<double> { return {pass().wall_s}; }, 5,
      ctx.seconds, ctx.seconds / 2, result);
  control.close();
  daemon.stop();
  result.add("setup_s", median(setup), "s", setup.size());
  result.add("job_s", median(job), "s", job.size());
  result.add("peak_rss_mb", daemon.max_rss_mb(), "MB", 1);
  return result;
}

}  // namespace perfbench
