#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "exec/cluster_protocol.hpp"
#include "exec/shard.hpp"
#include "obs/obs.hpp"

namespace hmdiv::serve {

namespace {

/// poll() with EINTR retry (signals — SIGCHLD from shard workers, the
/// daemon's own SIGTERM — must not surface as transport errors; the
/// shutdown signal is observed via the wake pipe, not via EINTR).
int poll_retry(pollfd* fds, nfds_t count, int timeout_ms) {
  for (;;) {
    const int rc = ::poll(fds, count, timeout_ms);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Server::Server(Service& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

Server::~Server() {
  if (running()) shutdown();
}

void Server::start() {
  if (running()) throw std::runtime_error("server already running");
  stopping_.store(false, std::memory_order_release);

  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    close_quietly(wake_pipe_[0]);
    close_quietly(wake_pipe_[1]);
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    const std::string bad = options_.bind_address;
    close_quietly(listen_fd_);
    close_quietly(wake_pipe_[0]);
    close_quietly(wake_pipe_[1]);
    throw std::runtime_error("invalid bind address '" + bad + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, options_.listen_backlog) != 0) {
    const std::string reason = std::strerror(errno);
    close_quietly(listen_fd_);
    close_quietly(wake_pipe_[0]);
    close_quietly(wake_pipe_[1]);
    throw std::runtime_error("bind/listen: " + reason);
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&Server::accept_loop, this);
}

void Server::request_shutdown() noexcept {
  // Only async-signal-safe operations: atomic stores and one write().
  service_.set_draining(true);
  stopping_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::shutdown() {
  request_shutdown();
  wait();
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop is gone; no new connections can appear.
  for (;;) {
    std::unique_ptr<Connection> connection;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      if (connections_.empty()) break;
      connection = std::move(connections_.back());
      connections_.pop_back();
    }
    if (connection->thread.joinable()) connection->thread.join();
  }
  close_quietly(listen_fd_);
  close_quietly(wake_pipe_[0]);
  close_quietly(wake_pipe_[1]);
  running_.store(false, std::memory_order_release);
}

std::size_t Server::reap_connections_locked() {
  std::size_t live = 0;
  auto it = connections_.begin();
  while (it != connections_.end()) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++live;
      ++it;
    }
  }
  return live;
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (poll_retry(fds, 2, -1) < 0) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int conn_fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn_fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) {
        continue;
      }
      break;
    }
    const int enable = 1;
    ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
    timeval send_timeout{};
    send_timeout.tv_sec = options_.send_timeout_seconds;
    ::setsockopt(conn_fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof send_timeout);
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(conn_fd, SOL_SOCKET, SO_SNDBUF,
                   &options_.send_buffer_bytes,
                   sizeof options_.send_buffer_bytes);
    }

    const std::lock_guard<std::mutex> lock(connections_mutex_);
    if (reap_connections_locked() >= options_.max_connections) {
      HMDIV_OBS_COUNT("serve.conn.busy_rejected", 1);
      static constexpr char kBusy[] =
          "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"busy\","
          "\"message\":\"connection limit reached\"}}\n";
      static_cast<void>(send_all(conn_fd, kBusy, sizeof kBusy - 1));
      int fd = conn_fd;
      close_quietly(fd);
      continue;
    }
    HMDIV_OBS_COUNT("serve.conn.accepted", 1);
    auto connection = std::make_unique<Connection>();
    connection->fd = conn_fd;
    Connection& ref = *connection;
    connections_.push_back(std::move(connection));
    ref.thread = std::thread(&Server::connection_loop, this, std::ref(ref));
  }
}

bool Server::send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t rc =
        ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    // EAGAIN here means the send timeout elapsed with zero progress for a
    // full window: the peer stopped reading. The remainder of the burst
    // cannot be delivered, so the connection closes — but never silently:
    // the counter names the cause. (Partial progress is not a timeout;
    // each short send above restarts the SO_SNDTIMEO window.)
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      HMDIV_OBS_COUNT("serve.conn.send_timeout", 1);
    } else {
      HMDIV_OBS_COUNT("serve.conn.send_error", 1);
    }
    return false;
  }
  return true;
}

void Server::connection_loop(Connection& connection) {
  RequestScratch scratch;
  std::string in;
  std::string out;
  std::size_t consumed = 0;
  bool peer_ok = true;
  bool oversized = false;
  char buffer[64 * 1024];

  // Answers every complete line currently buffered, stopping after a
  // shard upgrade: the bytes behind the upgrade line are HMDF frames for
  // shard_loop, never NDJSON. Returns false when the connection must
  // close (oversized unfinished line).
  const auto process_buffered = [&]() -> bool {
    if (scratch.shard_upgrade) return true;
    consumed += service_.handle_burst(
        std::string_view(in.data() + consumed, in.size() - consumed), scratch,
        out);
    if (scratch.shard_upgrade) return true;
    if (consumed == in.size()) {
      in.clear();
      consumed = 0;
    } else if (consumed > 4096) {
      // In-place shift; keeps the buffer from growing without bound
      // while a partial line straddles reads.
      in.erase(0, consumed);
      consumed = 0;
    }
    if (in.size() - consumed > options_.max_line_bytes) {
      oversized = true;
      HMDIV_OBS_COUNT("serve.protocol.oversized", 1);
      static constexpr char kOversized[] =
          "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"oversized\","
          "\"message\":\"request line exceeds the size limit\"}}\n";
      out += kOversized;
      return false;
    }
    return true;
  };

  for (;;) {
    pollfd fds[2] = {{connection.fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (poll_retry(fds, 2, -1) < 0) break;
    if (stopping_.load(std::memory_order_acquire)) break;
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    const ssize_t got = ::read(connection.fd, buffer, sizeof buffer);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;  // peer closed or hard error
    in.append(buffer, static_cast<std::size_t>(got));
    const bool resyncable = process_buffered();
    if (!out.empty()) {
      peer_ok = send_all(connection.fd, out.data(), out.size());
      out.clear();
    }
    if (!peer_ok) break;
    if (!resyncable) break;
    if (scratch.shard_upgrade) {
      // The upgrade response is flushed; everything buffered behind the
      // upgrade line (and every byte hereafter) is HMDF frames. The shard
      // loop owns the connection until the stream ends, then the socket
      // closes — NDJSON never resumes on an upgraded connection.
      shard_loop(connection,
                 std::string_view(in.data() + consumed, in.size() - consumed));
      break;
    }
  }

  // Drain: requests sent before shutdown still get answers. Bytes the
  // peer wrote before the stop signal may still be in flight or queued in
  // the kernel, so keep reading until the socket goes quiet for one grace
  // interval (bounded by kDrainMaxPolls so a chatty peer cannot stall
  // shutdown indefinitely). An upgraded connection has no lines to drain.
  if (peer_ok && !oversized && !scratch.shard_upgrade &&
      stopping_.load(std::memory_order_acquire)) {
    constexpr int kDrainGraceMs = 25;
    constexpr int kDrainMaxPolls = 10;
    for (int polls = 0; polls < kDrainMaxPolls; ++polls) {
      pollfd pfd{connection.fd, POLLIN, 0};
      if (poll_retry(&pfd, 1, kDrainGraceMs) <= 0) break;
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) break;
      const ssize_t got = ::read(connection.fd, buffer, sizeof buffer);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      in.append(buffer, static_cast<std::size_t>(got));
      if (!process_buffered()) break;
    }
    if (!oversized) process_buffered();
    if (!out.empty()) {
      static_cast<void>(send_all(connection.fd, out.data(), out.size()));
    }
  }
  ::shutdown(connection.fd, SHUT_RDWR);
  close_quietly(connection.fd);
  connection.done.store(true, std::memory_order_release);
}

void Server::shard_loop(Connection& connection, std::string_view initial) {
  HMDIV_OBS_COUNT("serve.shard.upgrades", 1);
  exec::ShardSession session;
  char buffer[64 * 1024];

  // Injected WAN latency (HMDIV_SHARD_FAULT=delay:<shard|*>:<ms>): matching
  // replies route through a delayed-sender thread that ships each one at
  // its due time (enqueue + delay). Delays overlap — reply N+1's clock
  // starts when it is produced, not when reply N finishes its sleep — so a
  // pipelined coordinator sees per-reply RTT, exactly like a long wire,
  // not a serialised stall. Once the fault is configured every reply goes
  // through the queue (unmatched ones with zero delay) so wire order stays
  // FIFO. Due times are monotone, so the front of the deque is always the
  // next reply due.
  const unsigned delay_ms = exec::shard_fault_delay_ms();
  struct DelayedReply {
    std::vector<std::uint8_t> bytes;
    std::chrono::steady_clock::time_point due;
    bool close = false;
  };
  std::mutex delay_mutex;
  std::condition_variable delay_cv;
  std::deque<DelayedReply> delay_queue;
  bool delay_stop = false;   // no more enqueues: drain, then exit
  bool delay_abort = false;  // shutdown: drop the queue and exit now
  std::atomic<bool> delay_dead{false};  // sender hit a send failure / close
  std::thread delay_sender;

  const auto delayed_send_loop = [&] {
    std::unique_lock<std::mutex> lock(delay_mutex);
    for (;;) {
      delay_cv.wait(lock, [&] {
        return delay_abort || delay_stop || !delay_queue.empty();
      });
      if (delay_abort || delay_queue.empty()) return;  // empty ⇒ stop+drained
      const auto due = delay_queue.front().due;
      if (delay_cv.wait_until(lock, due, [&] { return delay_abort; })) {
        return;
      }
      DelayedReply item = std::move(delay_queue.front());
      delay_queue.pop_front();
      lock.unlock();
      const bool sent =
          item.bytes.empty() ||
          send_all(connection.fd,
                   reinterpret_cast<const char*>(item.bytes.data()),
                   item.bytes.size());
      if (!sent || item.close) {
        delay_dead.store(true, std::memory_order_release);
        return;
      }
      lock.lock();
    }
  };

  const auto enqueue_delayed = [&](const exec::ShardSession::Reply& reply) {
    const bool matched = exec::shard_fault_mode(reply.shard_index) ==
                         exec::ShardFaultMode::delay;
    if (matched) HMDIV_OBS_COUNT("serve.shard.fault_delay", 1);
    DelayedReply item;
    item.bytes = reply.bytes;
    item.due = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(matched ? delay_ms : 0);
    item.close = reply.close;
    {
      const std::lock_guard<std::mutex> lock(delay_mutex);
      delay_queue.push_back(std::move(item));
    }
    delay_cv.notify_all();
    if (!delay_sender.joinable()) {
      delay_sender = std::thread(delayed_send_loop);
    }
  };

  // Ships one task's reply frames; false ends the stream. The injectable
  // faults live here — at the transport, where the coordinator's
  // retry-reassign path must absorb them — not in the compute.
  const auto ship = [&](const exec::ShardSession::Reply& reply) -> bool {
    if (delay_ms > 0) {
      enqueue_delayed(reply);
      return !reply.close && !delay_dead.load(std::memory_order_acquire);
    }
    switch (exec::shard_fault_mode(reply.shard_index)) {
      case exec::ShardFaultMode::connreset: {
        // SO_LINGER{on, 0} turns close() into a RST — what a crashed
        // worker host looks like from the coordinator's side.
        HMDIV_OBS_COUNT("serve.shard.fault_connreset", 1);
        linger hard{};
        hard.l_onoff = 1;
        hard.l_linger = 0;
        ::setsockopt(connection.fd, SOL_SOCKET, SO_LINGER, &hard,
                     sizeof hard);
        return false;
      }
      case exec::ShardFaultMode::slowdrain: {
        // Half the reply, then a stall past any sane per-task deadline
        // (sliced so shutdown is not held hostage), then the rest. The
        // coordinator must give up mid-drain and reassign.
        HMDIV_OBS_COUNT("serve.shard.fault_slowdrain", 1);
        const std::size_t half = reply.bytes.size() / 2;
        if (!send_all(connection.fd,
                      reinterpret_cast<const char*>(reply.bytes.data()),
                      half)) {
          return false;
        }
        for (int slice = 0; slice < 30; ++slice) {
          if (stopping_.load(std::memory_order_acquire)) return false;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        return send_all(connection.fd,
                        reinterpret_cast<const char*>(reply.bytes.data()) +
                            half,
                        reply.bytes.size() - half) &&
               !reply.close;
      }
      default:
        break;
    }
    if (!reply.bytes.empty() &&
        !send_all(connection.fd,
                  reinterpret_cast<const char*>(reply.bytes.data()),
                  reply.bytes.size())) {
      return false;
    }
    return !reply.close;
  };

  const auto consume = [&](const std::uint8_t* data,
                           std::size_t size) -> bool {
    for (const exec::ShardSession::Reply& reply :
         session.consume({data, size})) {
      if (!ship(reply)) return false;
    }
    return true;
  };

  const auto pump = [&] {
    if (!initial.empty() &&
        !consume(reinterpret_cast<const std::uint8_t*>(initial.data()),
                 initial.size())) {
      return;
    }
    for (;;) {
      if (delay_dead.load(std::memory_order_acquire)) return;
      pollfd fds[2] = {{connection.fd, POLLIN, 0},
                       {wake_pipe_[0], POLLIN, 0}};
      if (poll_retry(fds, 2, -1) < 0) return;
      if (stopping_.load(std::memory_order_acquire)) return;
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::read(connection.fd, buffer, sizeof buffer);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return;  // coordinator closed (normal end of a run)
      if (!consume(reinterpret_cast<const std::uint8_t*>(buffer),
                   static_cast<std::size_t>(got))) {
        return;
      }
    }
  };
  pump();

  // Drain the delayed sender before the socket closes: replies already
  // produced must still reach the wire at their due times (shutdown
  // aborts instead — the queue is dropped and the thread exits at once).
  if (delay_sender.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(delay_mutex);
      delay_stop = true;
      if (stopping_.load(std::memory_order_acquire)) delay_abort = true;
    }
    delay_cv.notify_all();
    delay_sender.join();
  }
}

}  // namespace hmdiv::serve
