// TCP transport for the serve daemon: accept loop, one thread per
// connection, newline-delimited request framing, and a drain-on-shutdown
// contract.
//
// Shutdown discipline (tested in tests/test_serve.cpp):
//  * request_shutdown() is async-signal-safe (an atomic store plus one
//    write() to a self-pipe) so SIGTERM/SIGINT handlers can call it.
//  * Every connection thread polls {conn_fd, wake_pipe}; on wake-up it
//    stops reading, but first answers every complete request line already
//    buffered — no request that reached the server is dropped silently —
//    flushes, and closes its socket.
//  * wait() joins the accept thread and every connection thread and closes
//    every descriptor the server opened; an fd-count assertion in the
//    tests pins the no-leak property.
//
// Framing limits: a line longer than max_line_bytes cannot be resynced
// (the frame boundary is lost), so the connection gets one structured
// error response and is closed. Writes use send(MSG_NOSIGNAL) with a send
// timeout so a stuck peer cannot wedge shutdown.
//
// The complete lines of each read go to Service::handle_burst, which
// answers them in request order (a long burst side by side on the process
// pool); the burst's responses flush with one send. A `shard` request line
// ends line parsing: its response is flushed and the rest of the
// connection, including any bytes the peer pipelined behind the upgrade
// line, belongs to shard_loop.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/service.hpp"

namespace hmdiv::serve {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is readable via port() after start().
  std::uint16_t port = 0;
  /// Connections beyond this are answered with one "busy" error line and
  /// closed (connection-level shedding, ahead of request admission).
  std::size_t max_connections = 64;
  std::size_t max_line_bytes = 1 << 20;
  int listen_backlog = 128;
  /// Bound on one blocking send; a peer that stops reading for longer is
  /// treated as gone (counted as serve.conn.send_timeout and closed).
  int send_timeout_seconds = 10;
  /// SO_SNDBUF for accepted connections; 0 leaves the kernel default.
  /// Tests shrink it so the send-timeout path triggers with small bursts.
  int send_buffer_bytes = 0;
};

class Server {
 public:
  Server(Service& service, ServerOptions options = {});
  ~Server();

  /// Binds, listens and starts the accept thread. Throws
  /// std::runtime_error on socket errors (address in use, ...).
  void start();

  /// The bound TCP port (resolves ephemeral binds).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Begins shutdown; safe to call from a signal handler.
  void request_shutdown() noexcept;

  /// Blocks until the accept loop and every connection have drained and
  /// every server-owned descriptor is closed.
  void wait();

  /// request_shutdown() + wait().
  void shutdown();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void connection_loop(Connection& connection);
  /// Binary shard mode (DESIGN.md §15): entered once a `shard` request
  /// set RequestScratch::shard_upgrade and its response has flushed.
  /// `initial` is whatever the peer pipelined behind the upgrade line —
  /// already frame bytes, never parsed as NDJSON. Returns
  /// when the stream ends (EOF, send failure, protocol error, shutdown);
  /// the caller closes the socket.
  void shard_loop(Connection& connection, std::string_view initial);
  /// Joins finished connection threads; returns the number still live.
  std::size_t reap_connections_locked();
  [[nodiscard]] bool send_all(int fd, const char* data, std::size_t size);

  Service& service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace hmdiv::serve
