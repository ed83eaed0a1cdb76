#include "exec/cluster.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <utility>

#include "exec/cluster_protocol.hpp"
#include "exec/config.hpp"
#include "exec/shard.hpp"
#include "exec/shard_protocol.hpp"
#include "obs/obs.hpp"

namespace hmdiv::exec {

namespace {

using Clock = std::chrono::steady_clock;

// --- Socket helpers -------------------------------------------------------

int remaining_ms(Clock::time_point deadline) noexcept {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 60'000) return 60'000;
  return static_cast<int>(left.count());
}

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

/// Splits "host:port" / "[v6]:port" into its pieces; false when the shape
/// is wrong (the CLI validates earlier, this is the defensive re-check).
bool split_address(const std::string& address, std::string& host,
                   std::string& port) {
  if (!address.empty() && address.front() == '[') {
    const std::size_t close = address.find(']');
    if (close == std::string::npos || close + 1 >= address.size() ||
        address[close + 1] != ':') {
      return false;
    }
    host = address.substr(1, close - 1);
    port = address.substr(close + 2);
  } else {
    const std::size_t colon = address.rfind(':');
    if (colon == std::string::npos || address.find(':') != colon) {
      return false;
    }
    host = address.substr(0, colon);
    port = address.substr(colon + 1);
  }
  return !host.empty() && !port.empty();
}

}  // namespace

// --- Per-worker connection state ------------------------------------------

struct ClusterRunner::Conn {
  enum class State { closed, connecting, upgrading, ready };

  std::string host;
  std::string port;
  int fd = -1;
  State state = State::closed;
  bool healthy = true;  ///< this run; reset at run start
  Clock::time_point conn_deadline{};  ///< connect/upgrade budget

  // Upgrade handshake progress (non-blocking, driven by the poll loop).
  std::size_t upgrade_sent = 0;
  std::string upgrade_line;

  // Pipelined task window, FIFO: the worker replies to tasks in dispatch
  // order, each reply terminated by a done frame naming its task id.
  struct Inflight {
    std::uint32_t id = 0;  ///< span-start micro-shard == task id
    std::uint32_t span = 1;
    Clock::time_point dispatched{};
  };
  std::deque<Inflight> inflight;
  Clock::time_point head_deadline{};
  std::vector<std::uint8_t> send_buf;
  std::size_t sent = 0;
  wire::FrameParser parser;

  // Reply accumulation for the head task. Buffered until its done frame
  // so a connection that dies mid-task never half-applies a task's obs
  // delta (the retried task re-ships it).
  std::vector<std::uint8_t> cur_payload;
  bool have_payload = false;
  std::vector<std::vector<std::uint8_t>> cur_obs;

  /// True once this connection shipped the run's blob inline; follow-up
  /// tasks set blob_cached and ride the worker session's cache.
  bool blob_sent = false;

  std::uint64_t dispatched_micro = 0;  ///< micro-shards sent this run

  // Re-admission: one probe per run after the backoff.
  bool readmit_armed = false;
  bool probing = false;  ///< the in-progress connect is the re-probe
  bool readmitted_this_run = false;
  /// Last sidelined this run before its connection was ready (refused,
  /// timed out or rejected the upgrade), not mid-run.
  bool connect_failed = false;
  Clock::time_point readmit_at{};

  ClusterWorkerStats stats;

  void close_fd() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    state = State::closed;
    inflight.clear();
    send_buf.clear();
    sent = 0;
    parser = wire::FrameParser{};
    cur_payload.clear();
    have_payload = false;
    cur_obs.clear();
    blob_sent = false;
    probing = false;
    upgrade_sent = 0;
    upgrade_line.clear();
  }
};

ClusterRunner::ClusterRunner(ClusterOptions options)
    : options_(std::move(options)) {
  conns_.reserve(options_.workers.size());
  for (const std::string& address : options_.workers) {
    Conn conn;
    conn.stats.address = address;
    if (!split_address(address, conn.host, conn.port)) {
      conn.healthy = false;
      conn.stats.last_error = "malformed worker address";
    }
    conns_.push_back(std::move(conn));
  }
}

ClusterRunner::ClusterRunner(std::span<const int> fds, ClusterOptions options)
    : options_(std::move(options)), local_(true) {
  conns_.resize(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    Conn& conn = conns_[i];
    conn.fd = fds[i];
    conn.state = Conn::State::ready;
    conn.stats.address = "shard " + std::to_string(i);
  }
}

ClusterRunner::~ClusterRunner() {
  for (Conn& conn : conns_) conn.close_fd();
}

unsigned ClusterRunner::resolved_shards() const noexcept {
  const unsigned shards = options_.shards != 0
                             ? options_.shards
                             : static_cast<unsigned>(conns_.size());
  return std::clamp(shards, 1u, kMaxShards);
}

std::vector<ClusterWorkerStats> ClusterRunner::worker_stats() const {
  std::vector<ClusterWorkerStats> out;
  out.reserve(conns_.size());
  for (const Conn& conn : conns_) out.push_back(conn.stats);
  return out;
}

std::vector<std::vector<std::uint8_t>> ClusterRunner::run(
    std::string_view workload, std::span<const std::uint8_t> blob,
    std::uint64_t items_hint) {
  if (conns_.empty()) {
    throw ClusterError("cluster: no workers configured");
  }
  unsigned shards = resolved_shards();
  if (options_.shards == 0 && items_hint > 0) {
    // Adaptive micro-shard count: enough small tasks that every worker's
    // window refills several times, bounded by the workload's item count
    // and the protocol ceiling.
    // Deliberately independent of the window depth: the micro-shard is
    // the unit of latency, so at a fixed grain a deeper window strictly
    // reduces the number of serialized round-trip generations per worker
    // (count/window of them) — which is the whole point of pipelining.
    const auto workers64 = static_cast<std::uint64_t>(conns_.size());
    const std::uint64_t target = workers64 * 32;
    shards = static_cast<unsigned>(std::min<std::uint64_t>(
        std::min<std::uint64_t>(items_hint, target), kMaxShards));
    if (shards == 0) shards = 1;
  }
  HMDIV_OBS_SCOPED_TIMER("exec.cluster.run_ns");
  HMDIV_OBS_COUNT("exec.cluster.runs", 1);
  try {
    return dispatch(workload, blob, shards);
  } catch (...) {
    HMDIV_OBS_COUNT("exec.cluster.failures", 1);
    // Mid-task streams cannot be resynced; drop them so a later run
    // starts from a clean connection.
    for (Conn& conn : conns_) {
      if (!conn.inflight.empty()) conn.close_fd();
    }
    throw;
  }
}

std::vector<std::vector<std::uint8_t>> ClusterRunner::dispatch(
    std::string_view workload, std::span<const std::uint8_t> blob,
    unsigned shards) {
  const unsigned window = std::max(1u, options_.window);
  const bool ship_obs = obs::enabled();
  const unsigned threads =
      options_.threads ? options_.threads : default_config().threads;

  // Scheduler metrics are named after the transport: a local fleet
  // reports under exec.shard.*, a remote one under exec.cluster.*.
  const std::string metric_prefix = local_ ? "exec.shard." : "exec.cluster.";
  const auto count = [&](const char* name, std::uint64_t n) {
    if (obs::enabled()) {
      obs::Registry::global().counter(metric_prefix + name).add(n);
    }
  };
  const auto record = [&](const char* name, std::uint64_t value) {
    if (obs::enabled()) {
      obs::Registry::global().histogram(metric_prefix + name).record(value);
    }
  };

  // Pending work in micro-shard units: dispatch slices task-sized spans
  // off the front, a sidelined worker's in-flight spans requeue at the
  // front (oldest first), so coverage of [0, shards) is exact on every
  // path.
  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  std::deque<Span> pending;
  pending.push_back(Span{0, shards});
  std::uint64_t pending_micro = shards;
  unsigned completed = 0;

  // Results keyed by span start; payload_span remembers each task's width
  // so the epilogue can walk the final partition in ascending order.
  std::vector<std::vector<std::uint8_t>> payloads(shards);
  std::vector<std::uint32_t> payload_span(shards, 0);
  std::string last_failure = "no worker reachable";

  // Health, blob shipping, and re-admission are per-run; warm fds and
  // cumulative stats persist across runs.
  for (Conn& conn : conns_) {
    conn.healthy = local_ || !conn.host.empty();
    conn.blob_sent = false;
    conn.readmit_armed = false;
    conn.probing = false;
    conn.readmitted_this_run = false;
    conn.connect_failed = false;
    conn.dispatched_micro = 0;
  }

  // Drops a worker: the frame stream cannot be resynced, so the fd
  // closes, every in-flight span goes back to the front of the queue in
  // dispatch order, and — once per run — a re-probe is scheduled after
  // the backoff.
  const auto sideline = [&](Conn& conn, const std::string& why) {
    conn.stats.last_error = why;
    conn.connect_failed = conn.state != Conn::State::ready;
    last_failure = conn.stats.address + ": " + why;
    if (!conn.inflight.empty()) {
      conn.stats.retries += conn.inflight.size();
      count("retries", conn.inflight.size());
      for (auto it = conn.inflight.rbegin(); it != conn.inflight.rend();
           ++it) {
        pending.push_front(Span{it->id, it->id + it->span});
        pending_micro += it->span;
      }
    }
    conn.close_fd();
    conn.healthy = false;
    if (options_.readmit_after.count() > 0 && !conn.readmitted_this_run) {
      conn.readmit_armed = true;
      conn.readmit_at = Clock::now() + options_.readmit_after;
    }
  };

  // Failure policy, picked by transport. A local worker fails fast: the
  // first failure ends the run with a ShardError naming the worker, and
  // ShardRunner refines its kind from the wait status once the process is
  // reaped. A remote worker is sidelined and its spans requeue.
  const auto fail = [&](Conn& conn, ShardFailure::Kind kind, int code,
                        std::string why) {
    if (local_) {
      throw ShardError(ShardFailure{
          kind, static_cast<std::uint32_t>(&conn - conns_.data()), code,
          std::move(why)});
    }
    sideline(conn, why);
  };

  const auto enter_upgrade = [&](Conn& conn) {
    conn.state = Conn::State::upgrading;
    conn.upgrade_sent = 0;
    conn.upgrade_line.clear();
    conn.conn_deadline = Clock::now() + options_.connect_timeout;
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  };

  // Kicks off a non-blocking connect; the poll loop finishes it. All
  // startup connects launch together, so startup cost is the slowest
  // worker's handshake, not the sum.
  const auto start_connect = [&](Conn& conn) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV;
    addrinfo* list = nullptr;
    const int rc =
        ::getaddrinfo(conn.host.c_str(), conn.port.c_str(), &hints, &list);
    if (rc != 0) {
      sideline(conn, std::string("resolve failed: ") + ::gai_strerror(rc));
      return;
    }
    int fd = -1;
    int last_errno = ECONNREFUSED;
    bool in_progress = false;
    for (addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
      fd = ::socket(ai->ai_family,
                    ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                    ai->ai_protocol);
      if (fd < 0) {
        last_errno = errno;
        continue;
      }
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
      if (errno == EINPROGRESS) {
        in_progress = true;
        break;
      }
      last_errno = errno;
      ::close(fd);
      fd = -1;
    }
    ::freeaddrinfo(list);
    if (fd < 0) {
      sideline(conn, std::string("connect failed: ") +
                         std::strerror(last_errno));
      return;
    }
    conn.fd = fd;
    if (in_progress) {
      conn.state = Conn::State::connecting;
      conn.conn_deadline = Clock::now() + options_.connect_timeout;
    } else {
      enter_upgrade(conn);
    }
  };

  const auto finish_upgrade = [&](Conn& conn, std::size_t newline) {
    const std::size_t ok = conn.upgrade_line.find("\"ok\":true");
    if (ok == std::string::npos || ok > newline) {
      sideline(conn,
               "upgrade rejected: " + conn.upgrade_line.substr(0, newline));
      return;
    }
    // Trailing bytes already belong to the frame stream (none with a
    // well-behaved worker, but the parser owns them either way).
    const std::size_t extra = conn.upgrade_line.size() - newline - 1;
    if (extra > 0) {
      conn.parser.feed(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(conn.upgrade_line.data()) +
              newline + 1,
          extra));
    }
    conn.upgrade_line.clear();
    conn.state = Conn::State::ready;
    if (conn.probing) {
      conn.probing = false;
      conn.stats.readmitted += 1;
      count("readmitted", 1);
    }
  };

  // Task size, one fixed rule for every worker:
  // clamp(ceil(pending / (active × window)), 1, max(1, shards / (active ×
  // 16))), i.e. at most one window's worth of the remaining work per
  // active worker. The cap keeps a span from swallowing a worker's whole
  // share: a full-size task still leaves ~16 dispatches per active
  // worker, so the window keeps refilling (RTT stays hidden behind queued
  // tasks), a sidelined worker requeues small spans instead of one fat
  // one, and the tail is never gated by a single oversized task. Workers
  // still connecting count as active, so the first one up cannot pull
  // oversized spans.
  const auto task_size = [&]() -> std::uint32_t {
    std::uint64_t active = 0;
    for (const Conn& c : conns_) {
      if (c.healthy && c.state != Conn::State::closed) active += 1;
    }
    active = std::max<std::uint64_t>(active, 1);
    const std::uint64_t slots = active * window;  // fleet window slots
    const std::uint64_t cap =
        std::max<std::uint64_t>(1, shards / (active * 16));
    return static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
        (pending_micro + slots - 1) / slots, 1, cap));
  };

  const auto dispatch_one = [&](std::size_t index) {
    Conn& conn = conns_[index];
    const std::uint32_t want = task_size();
    Span& front = pending.front();
    const std::uint32_t take = std::min(want, front.end - front.begin);
    const std::uint32_t start = front.begin;
    front.begin += take;
    if (front.begin == front.end) pending.pop_front();
    pending_micro -= take;
    wire::ShardTask task;
    task.workload = std::string(workload);
    task.shard_index = start;
    task.shard_count = shards;
    task.span = take;
    task.threads = threads;
    task.obs_enabled = ship_obs;
    task.blob_cached = conn.blob_sent;
    if (!conn.blob_sent) {
      task.blob.assign(blob.begin(), blob.end());
      conn.blob_sent = true;
    }
    wire::append_frame(conn.send_buf, wire::FrameType::task,
                       wire::serialize_task(task));
    const auto now = Clock::now();
    conn.inflight.push_back(Conn::Inflight{start, take, now});
    conn.dispatched_micro += take;
    if (conn.inflight.size() == 1) {
      conn.head_deadline = now + options_.task_deadline;
    }
    record("inflight", conn.inflight.size());
    record("queue_depth", pending_micro);
    record("task_size", take);
  };

  // Keeps every ready worker's window full. A worker still connecting
  // gets nothing until it is ready, and nothing waits for it: the window
  // and the span cap bound what the first worker up can hold.
  const auto fill_windows = [&]() {
    while (!pending.empty()) {
      std::size_t best = conns_.size();
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        const Conn& conn = conns_[i];
        if (!conn.healthy || conn.state != Conn::State::ready) continue;
        if (conn.inflight.size() >= window) continue;
        // Shallowest window first; on ties the worker that has pulled
        // the least so far, so fresh joiners get work immediately.
        if (best == conns_.size() ||
            conn.inflight.size() < conns_[best].inflight.size() ||
            (conn.inflight.size() == conns_[best].inflight.size() &&
             conn.dispatched_micro < conns_[best].dispatched_micro)) {
          best = i;
        }
      }
      if (best == conns_.size()) return;
      dispatch_one(best);
    }
  };

  const auto complete_head = [&](Conn& conn) {
    const Conn::Inflight head = conn.inflight.front();
    conn.inflight.pop_front();
    for (std::vector<std::uint8_t>& snapshot : conn.cur_obs) {
      try {
        obs::Registry::global().merge(obs::parse_snapshot(snapshot));
      } catch (const std::exception& e) {
        if (local_) {
          fail(conn, ShardFailure::Kind::protocol, 0,
               std::string("bad obs frame: ") + e.what());
        }
        throw ClusterError("cluster: " + conn.stats.address +
                           ": bad obs frame: " + e.what());
      }
    }
    conn.cur_obs.clear();
    payloads[head.id] = std::move(conn.cur_payload);
    conn.cur_payload = std::vector<std::uint8_t>{};
    conn.have_payload = false;
    payload_span[head.id] = head.span;
    completed += head.span;
    conn.stats.tasks += 1;
    count("tasks", 1);
    const auto now = Clock::now();
    record("rpc_ns", elapsed_ns(head.dispatched, now));
    if (!conn.inflight.empty()) {
      conn.head_deadline = now + options_.task_deadline;
    }
  };

  // Drains every parsed frame; false when the connection failed. A
  // structured error frame is a deterministic workload failure no
  // reassignment can fix, so it aborts the run on either transport.
  const auto process_frames = [&](Conn& conn) -> bool {
    const auto protocol = [&](std::string why) {
      fail(conn, ShardFailure::Kind::protocol, 0, std::move(why));
      return false;
    };
    while (auto frame = conn.parser.next()) {
      switch (frame->type) {
        case wire::FrameType::result:
          if (conn.inflight.empty() || conn.have_payload) {
            return protocol("unexpected result frame");
          }
          conn.cur_payload = std::move(frame->payload);
          conn.have_payload = true;
          break;
        case wire::FrameType::obs:
          if (conn.inflight.empty()) return protocol("unexpected obs frame");
          conn.cur_obs.push_back(std::move(frame->payload));
          break;
        case wire::FrameType::error: {
          std::string message = "worker error";
          try {
            wire::Reader reader(frame->payload);
            message = reader.str();
          } catch (const wire::ProtocolError&) {
          }
          conn.stats.last_error = message;
          if (local_) fail(conn, ShardFailure::Kind::worker, 0, message);
          throw ClusterError("cluster: " + conn.stats.address + ": " +
                             message);
        }
        case wire::FrameType::done: {
          std::uint32_t id = 0;
          try {
            id = wire::parse_done(frame->payload);
          } catch (const wire::ProtocolError& e) {
            return protocol(std::string("bad done frame: ") + e.what());
          }
          if (conn.inflight.empty() || id != conn.inflight.front().id ||
              !conn.have_payload) {
            return protocol("done frame out of order (task " +
                            std::to_string(id) + ")");
          }
          complete_head(conn);
          break;
        }
        case wire::FrameType::task:
          return protocol("unexpected task frame from worker");
      }
    }
    return true;
  };

  std::uint8_t buffer[1 << 16];
  for (Conn& conn : conns_) {
    if (conn.healthy && conn.state == Conn::State::closed) {
      start_connect(conn);
    }
  }

  while (completed < shards) {
    for (Conn& conn : conns_) {
      if (conn.readmit_armed && Clock::now() >= conn.readmit_at) {
        conn.readmit_armed = false;
        conn.readmitted_this_run = true;
        conn.probing = true;
        conn.healthy = true;
        start_connect(conn);
      }
    }

    fill_windows();

    std::vector<pollfd> fds;
    std::vector<std::size_t> owner;
    int timeout = 60'000;
    bool readmit_pending = false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      Conn& conn = conns_[i];
      if (conn.readmit_armed) {
        readmit_pending = true;
        timeout = std::min(timeout, remaining_ms(conn.readmit_at));
      }
      if (!conn.healthy || conn.state == Conn::State::closed) continue;
      short events = 0;
      switch (conn.state) {
        case Conn::State::connecting:
          events = POLLOUT;
          timeout = std::min(timeout, remaining_ms(conn.conn_deadline));
          break;
        case Conn::State::upgrading:
          events = POLLIN;
          if (conn.upgrade_sent < kShardUpgradeLine.size()) {
            events |= POLLOUT;
          }
          timeout = std::min(timeout, remaining_ms(conn.conn_deadline));
          break;
        case Conn::State::ready:
          if (conn.inflight.empty() && conn.sent >= conn.send_buf.size()) {
            continue;  // idle warm connection: nothing expected
          }
          events = POLLIN;
          if (conn.sent < conn.send_buf.size()) events |= POLLOUT;
          if (!conn.inflight.empty()) {
            timeout = std::min(timeout, remaining_ms(conn.head_deadline));
          }
          break;
        case Conn::State::closed:
          continue;
      }
      fds.push_back(pollfd{conn.fd, events, 0});
      owner.push_back(i);
    }
    if (fds.empty()) {
      // Every worker is sidelined. If none got as far as a ready
      // connection (a malformed address never can) and nothing has
      // completed, the fleet is down: fail now rather than sleep out the
      // backoff for a re-probe.
      const bool fleet_refused =
          completed == 0 &&
          std::all_of(conns_.begin(), conns_.end(), [](const Conn& c) {
            return c.connect_failed || c.host.empty();
          });
      if (readmit_pending && !fleet_refused) {
        // A worker failed mid-run and a re-probe is scheduled: sleep out
        // the shortest backoff instead of giving up.
        if (timeout > 0) ::poll(nullptr, 0, timeout);
        continue;
      }
      throw ClusterError(
          "cluster: no healthy workers remain (" +
          std::to_string(shards - completed) +
          " micro-shards unfinished; last failure: " + last_failure +
          ")");
    }

    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready < 0 && errno != EINTR) {
      const int error = errno;
      const std::string why =
          std::string("poll failed: ") + std::strerror(error);
      if (local_) {
        throw ShardError(
            ShardFailure{ShardFailure::Kind::protocol, 0, error, why});
      }
      throw ClusterError("cluster: " + why);
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      Conn& conn = conns_[owner[i]];
      if (!conn.healthy || conn.state == Conn::State::closed) continue;
      const short revents = fds[i].revents;

      if (conn.state == Conn::State::connecting) {
        if (revents != 0) {
          int so_error = 0;
          socklen_t len = sizeof so_error;
          if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &so_error,
                           &len) != 0) {
            so_error = errno;
          }
          if (so_error != 0) {
            sideline(conn, std::string("connect failed: ") +
                               std::strerror(so_error));
          } else {
            enter_upgrade(conn);
          }
        } else if (Clock::now() >= conn.conn_deadline) {
          sideline(conn, "connect timed out");
        }
        continue;
      }

      if (conn.state == Conn::State::upgrading) {
        if ((revents & POLLOUT) != 0 &&
            conn.upgrade_sent < kShardUpgradeLine.size()) {
          const ssize_t n = ::send(
              conn.fd, kShardUpgradeLine.data() + conn.upgrade_sent,
              kShardUpgradeLine.size() - conn.upgrade_sent, MSG_NOSIGNAL);
          if (n < 0) {
            if (errno != EAGAIN && errno != EWOULDBLOCK &&
                errno != EINTR) {
              sideline(conn, "upgrade send failed");
              continue;
            }
          } else {
            conn.upgrade_sent += static_cast<std::size_t>(n);
          }
        }
        if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
          if (n > 0) {
            conn.upgrade_line.append(reinterpret_cast<const char*>(buffer),
                                     static_cast<std::size_t>(n));
            const std::size_t newline = conn.upgrade_line.find('\n');
            if (newline != std::string::npos) {
              finish_upgrade(conn, newline);
            } else if (conn.upgrade_line.size() > 4096) {
              sideline(conn, "oversized upgrade response");
            }
          } else if (n == 0) {
            sideline(conn, "closed during upgrade");
          } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR) {
            sideline(conn, std::string("upgrade read failed: ") +
                               std::strerror(errno));
          }
        }
        if (conn.state == Conn::State::upgrading &&
            Clock::now() >= conn.conn_deadline) {
          sideline(conn, "upgrade timed out");
        }
        continue;
      }

      // ready: pump pipelined task bytes out, drain reply frames in.
      if ((revents & POLLOUT) != 0 && conn.sent < conn.send_buf.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.send_buf.data() + conn.sent,
                   conn.send_buf.size() - conn.sent, MSG_NOSIGNAL);
        if (n < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            fail(conn, ShardFailure::Kind::write, errno,
                 std::string("task send failed: ") + std::strerror(errno));
            continue;
          }
        } else {
          conn.sent += static_cast<std::size_t>(n);
          conn.stats.bytes_out += static_cast<std::uint64_t>(n);
          count("bytes_out", static_cast<std::uint64_t>(n));
          if (conn.sent == conn.send_buf.size()) {
            conn.send_buf.clear();
            conn.sent = 0;
            // A local worker is never sent more once the queue is empty:
            // half-close so it exits as soon as it has replied, and its
            // teardown overlaps the rest of the run.
            if (local_ && pending.empty()) ::shutdown(conn.fd, SHUT_WR);
          }
        }
      }

      if ((revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL)) != 0) {
        const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
        if (n < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            fail(conn, ShardFailure::Kind::protocol, errno,
                 std::string("reply read failed: ") + std::strerror(errno));
            continue;
          }
        } else if (n == 0) {
          // EOF mid-frame is a truncated stream; a local worker's wait
          // status may say more, which ShardRunner checks after reaping.
          fail(conn,
               conn.parser.idle() ? ShardFailure::Kind::protocol
                                  : ShardFailure::Kind::truncated,
               0, "connection closed by worker");
          continue;
        } else {
          conn.stats.bytes_in += static_cast<std::uint64_t>(n);
          count("bytes_in", static_cast<std::uint64_t>(n));
          conn.parser.feed({buffer, static_cast<std::size_t>(n)});
          try {
            if (!process_frames(conn)) continue;
          } catch (const wire::ProtocolError& e) {
            fail(conn, ShardFailure::Kind::protocol, 0,
                 std::string("protocol error: ") + e.what());
            continue;
          }
        }
      }

      if (!conn.inflight.empty() && Clock::now() >= conn.head_deadline) {
        fail(conn, ShardFailure::Kind::timeout, 0, "task deadline expired");
      }
    }
  }

  // The final partition in ascending span-start order: each completed
  // task recorded its width, so the walk visits every payload exactly
  // once with no overlap.
  std::vector<std::vector<std::uint8_t>> results;
  for (std::uint32_t s = 0; s < shards;) {
    results.push_back(std::move(payloads[s]));
    const std::uint32_t span = payload_span[s] == 0 ? 1 : payload_span[s];
    s += span;
  }
  return results;
}

}  // namespace hmdiv::exec
