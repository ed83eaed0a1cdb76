// Tests for the multi-host cluster engine (DESIGN.md §15): the shared
// host:port parse, the obs snapshot delta the workers ship, the worker-
// side ShardSession state machine, the ClusterRunner coordinator against
// real spawned hmdiv_serve daemons (bit-identity for every clustered
// workload at several worker × shard compositions), transport-fault
// reassignment (connection reset, slow drain past the task deadline, dead
// and unresponsive workers).
//
// Daemon-backed tests spawn the real hmdiv_serve binary (HMDIV_SERVE_BIN,
// exported by the test harness) on loopback ephemeral ports; they
// self-skip under ThreadSanitizer (fork/exec of a threaded parent is
// outside TSan's model) and when the binary is absent. The protocol and
// determinism pieces that stay in-process always run.
#include "exec/cluster.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cli/parse_util.hpp"
#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/cluster_protocol.hpp"
#include "exec/config.hpp"
#include "exec/shard.hpp"
#include "exec/shard_protocol.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial.hpp"
#include "sim/trial_shard.hpp"
#include "stats/rng.hpp"
#include "tradeoff_fixtures.hpp"

#if defined(__SANITIZE_THREAD__)
#define HMDIV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HMDIV_TSAN 1
#endif
#endif
#ifndef HMDIV_TSAN
#define HMDIV_TSAN 0
#endif

namespace hmdiv {
namespace {

namespace wire = exec::wire;
using namespace std::chrono_literals;

// --- daemon harness -------------------------------------------------------

const char* serve_binary() {
  const char* binary = std::getenv("HMDIV_SERVE_BIN");
  return (binary != nullptr && *binary != '\0') ? binary : nullptr;
}

#define HMDIV_REQUIRE_DAEMONS()                                          \
  do {                                                                   \
    if (HMDIV_TSAN) {                                                    \
      GTEST_SKIP() << "fork/exec daemons are not TSan-instrumentable";   \
    }                                                                    \
    if (serve_binary() == nullptr) {                                     \
      GTEST_SKIP() << "HMDIV_SERVE_BIN not set";                         \
    }                                                                    \
  } while (0)

/// One spawned `hmdiv_serve --example` worker on an ephemeral loopback
/// port. `fault` (optional) becomes HMDIV_SHARD_FAULT in the child's
/// environment only, so serve-transport faults fire on exactly one worker.
class SpawnedDaemon {
 public:
  explicit SpawnedDaemon(const char* fault = nullptr) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) return;
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      return;
    }
    if (pid_ == 0) {
      if (fault != nullptr) ::setenv("HMDIV_SHARD_FAULT", fault, 1);
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      const char* binary = serve_binary();
      ::execl(binary, binary, "--example", "--port", "0", "--threads", "1",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    // Parse "listening on 127.0.0.1:<port>" from the daemon's stdout.
    std::string banner;
    char chunk[256];
    while (banner.find('\n') == std::string::npos) {
      const ssize_t got = ::read(out_pipe[0], chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      banner.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(out_pipe[0]);
    const std::size_t newline = banner.find('\n');
    const std::size_t colon =
        newline == std::string::npos ? std::string::npos
                                     : banner.rfind(':', newline);
    if (colon != std::string::npos) {
      port_ = std::atoi(banner.c_str() + colon + 1);
    }
  }

  ~SpawnedDaemon() { stop(); }
  SpawnedDaemon(const SpawnedDaemon&) = delete;
  SpawnedDaemon& operator=(const SpawnedDaemon&) = delete;

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  [[nodiscard]] bool ok() const { return pid_ > 0 && port_ > 0; }
  [[nodiscard]] std::string address() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Fleet sizes the identity tests cover: the first n of four daemons.
constexpr unsigned kFleetSizes[] = {1, 2, 4};

std::vector<std::string> addresses_of(std::span<const SpawnedDaemon> daemons) {
  std::vector<std::string> out;
  for (const SpawnedDaemon& daemon : daemons) out.push_back(daemon.address());
  return out;
}

exec::ClusterOptions cluster_options(std::vector<std::string> workers,
                                     unsigned shards) {
  exec::ClusterOptions options;
  options.workers = std::move(workers);
  options.shards = shards;
  options.threads = 1;
  return options;
}

// --- reference fixtures (mirror tests/test_shard.cpp) ---------------------

core::TradeoffAnalyzer reference_analyzer() {
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.8};
  machine.normal_class_means = {-2.0, -0.5};
  core::DemandProfile cancers({"easy", "difficult"}, {0.9, 0.1});
  std::vector<core::HumanFnResponse> fn(2);
  fn[0] = {0.14, 0.18};
  fn[1] = {0.4, 0.9};
  core::DemandProfile normals({"typical", "complex"}, {0.85, 0.15});
  std::vector<core::HumanFpResponse> fp(2);
  fp[0] = {0.10, 0.02};
  fp[1] = {0.35, 0.12};
  return core::TradeoffAnalyzer(std::move(machine), std::move(cancers),
                                std::move(fn), std::move(normals),
                                std::move(fp), 0.01);
}

core::PosteriorModelSampler paper_sampler() {
  core::ClassCounts easy;
  easy.cases = 800;
  easy.machine_failures = 56;
  easy.human_failures_given_machine_failed = 28;
  easy.human_failures_given_machine_succeeded = 40;
  core::ClassCounts difficult;
  difficult.cases = 200;
  difficult.machine_failures = 82;
  difficult.human_failures_given_machine_failed = 74;
  difficult.human_failures_given_machine_succeeded = 30;
  return core::PosteriorModelSampler({"easy", "difficult"},
                                     {easy, difficult});
}

std::vector<double> reference_thresholds(std::size_t n) {
  std::vector<double> thresholds(n);
  for (std::size_t i = 0; i < n; ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) /
                               static_cast<double>(n - 1);
  }
  return thresholds;
}

// --- cli::parse_host_port -------------------------------------------------
// (The full rejection table lives in src/cli/CMakeLists.txt: every
// malformed spelling must exit 2 through the real CLIs. Here: accepts.)

TEST(ClusterParseHostPortTest, AcceptsPlainHostPort) {
  const cli::HostPort parsed =
      cli::parse_host_port("test", "--workers", "example.org:8080");
  EXPECT_EQ(parsed.host, "example.org");
  EXPECT_EQ(parsed.port, 8080);
}

TEST(ClusterParseHostPortTest, AcceptsBracketedIpv6) {
  const cli::HostPort parsed =
      cli::parse_host_port("test", "--workers", "[::1]:9000");
  EXPECT_EQ(parsed.host, "::1");
  EXPECT_EQ(parsed.port, 9000);
}

TEST(ClusterParseHostPortTest, AcceptsPortBounds) {
  EXPECT_EQ(cli::parse_host_port("test", "--bind", "0.0.0.0:0").port, 0);
  EXPECT_EQ(cli::parse_host_port("test", "--bind", "h:65535").port, 65535);
}

// --- obs::snapshot_delta --------------------------------------------------

TEST(ClusterSnapshotDeltaTest, CountersAndHistogramsSubtract) {
  obs::Snapshot before;
  before.counters.push_back({"a.count", 10});
  obs::HistogramSnapshot h;
  h.name = "a.ns";
  h.count = 4;
  h.sum = 400;
  h.min = 50;
  h.max = 200;
  h.buckets.assign(obs::Histogram::kBuckets, 0);
  h.buckets[6] = 4;
  before.histograms.push_back(h);

  obs::Snapshot after = before;
  after.counters[0].value = 17;
  after.histograms[0].count = 6;
  after.histograms[0].sum = 1000;
  after.histograms[0].min = 25;   // cumulative envelope widened
  after.histograms[0].max = 500;
  after.histograms[0].buckets[6] = 5;
  after.histograms[0].buckets[8] = 1;

  const obs::Snapshot delta = obs::snapshot_delta(before, after);
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters[0].name, "a.count");
  EXPECT_EQ(delta.counters[0].value, 7u);
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count, 2u);
  EXPECT_EQ(delta.histograms[0].sum, 600u);
  // min/max carry the cumulative envelope (documented approximation).
  EXPECT_EQ(delta.histograms[0].min, 25u);
  EXPECT_EQ(delta.histograms[0].max, 500u);
  EXPECT_EQ(delta.histograms[0].buckets[6], 1u);
  EXPECT_EQ(delta.histograms[0].buckets[8], 1u);
}

TEST(ClusterSnapshotDeltaTest, UnchangedMetricsAreDropped) {
  obs::Snapshot before;
  before.counters.push_back({"same", 5});
  obs::Snapshot after = before;
  const obs::Snapshot delta = obs::snapshot_delta(before, after);
  EXPECT_TRUE(delta.empty());
}

TEST(ClusterSnapshotDeltaTest, NewMetricsPassThroughWhole) {
  obs::Snapshot before;
  obs::Snapshot after;
  after.counters.push_back({"fresh", 3});
  const obs::Snapshot delta = obs::snapshot_delta(before, after);
  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters[0].value, 3u);
}

// --- worker-side ShardSession ---------------------------------------------

std::vector<std::uint8_t> echo_handler(const wire::ShardTask& task) {
  wire::Writer w;
  w.u32(task.shard_index);
  w.u32(task.shard_count);
  w.bytes(task.blob);
  return w.take();
}

const exec::ShardWorkloadRegistration kEchoRegistration{"cluster.echo",
                                                        &echo_handler};

std::vector<std::uint8_t> task_frame(std::string_view workload,
                                     std::uint32_t shard, std::uint32_t count,
                                     bool obs_enabled = false,
                                     std::vector<std::uint8_t> blob = {1, 2,
                                                                       3}) {
  wire::ShardTask task;
  task.workload = std::string(workload);
  task.shard_index = shard;
  task.shard_count = count;
  task.threads = 1;
  task.obs_enabled = obs_enabled;
  task.blob = std::move(blob);
  std::vector<std::uint8_t> out;
  wire::append_frame(out, wire::FrameType::task, wire::serialize_task(task));
  return out;
}

std::vector<wire::Frame> parse_reply(std::span<const std::uint8_t> bytes) {
  wire::FrameParser parser;
  parser.feed(bytes);
  std::vector<wire::Frame> frames;
  while (auto frame = parser.next()) frames.push_back(std::move(*frame));
  EXPECT_TRUE(parser.idle());
  return frames;
}

TEST(ClusterSessionTest, EchoTaskRoundTrips) {
  exec::ShardSession session;
  const auto replies = session.consume(task_frame("cluster.echo", 2, 5));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].shard_index, 2u);
  EXPECT_FALSE(replies[0].close);
  const auto frames = parse_reply(replies[0].bytes);
  // result + done (no obs frame when obs_enabled is false); the done
  // frame's id echoes the task's span-start shard index so a pipelining
  // coordinator can match it against its in-flight FIFO.
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, wire::FrameType::result);
  wire::Reader r(frames[0].payload);
  EXPECT_EQ(r.u32(), 2u);
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_EQ(frames[1].type, wire::FrameType::done);
  EXPECT_EQ(wire::parse_done(frames[1].payload), 2u);
}

TEST(ClusterSessionTest, ObsEnabledTaskShipsDeltaFrame) {
  const bool was_enabled = obs::enabled();
  exec::ShardSession session;
  const auto replies =
      session.consume(task_frame("cluster.echo", 0, 1, /*obs_enabled=*/true));
  obs::set_enabled(was_enabled);
  ASSERT_EQ(replies.size(), 1u);
  const auto frames = parse_reply(replies[0].bytes);
  ASSERT_EQ(frames.size(), 3u);  // result + obs + done
  EXPECT_EQ(frames[0].type, wire::FrameType::result);
  EXPECT_EQ(frames[1].type, wire::FrameType::obs);
  EXPECT_EQ(frames[2].type, wire::FrameType::done);
  // The delta covers exactly this task's execution, so the per-task
  // counter must be 1 — not the daemon's uptime total.
  const obs::Snapshot delta = obs::parse_snapshot(frames[1].payload);
  bool found = false;
  for (const auto& counter : delta.counters) {
    if (counter.name == "serve.shard.tasks") {
      EXPECT_EQ(counter.value, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ClusterSessionTest, UnknownWorkloadYieldsErrorFrame) {
  exec::ShardSession session;
  const auto replies = session.consume(task_frame("no.such.workload", 0, 1));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].close);
  const auto frames = parse_reply(replies[0].bytes);
  // An error frame is terminal for the task: no done frame follows it
  // (done marks successful completion only).
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::error);
}

TEST(ClusterSessionTest, GarbageBytesKillTheSession) {
  exec::ShardSession session;
  const std::uint8_t garbage[] = {'N', 'O', 'P', 'E', 0, 0, 0, 0,
                                  1,   2,   3,   4,   5, 6, 7, 8};
  const auto replies = session.consume(garbage);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].close);
  const auto frames = parse_reply(replies[0].bytes);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::error);
  // Dead session ignores further (even well-formed) bytes.
  EXPECT_TRUE(session.consume(task_frame("cluster.echo", 0, 1)).empty());
}

TEST(ClusterSessionTest, SplitTaskFrameCompletesOnSecondChunk) {
  exec::ShardSession session;
  const auto frame = task_frame("cluster.echo", 1, 3);
  const std::size_t half = frame.size() / 2;
  EXPECT_TRUE(
      session.consume(std::span(frame.data(), half)).empty());
  const auto replies =
      session.consume(std::span(frame.data() + half, frame.size() - half));
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].shard_index, 1u);
}

TEST(ClusterSessionTest, PipelinedTasksReplyInOrderAtEveryChunking) {
  // Three back-to-back task frames — the wire image of a window-3
  // coordinator — fed at every fixed chunk size: the session must yield
  // the same three replies in arrival order, each closed by the matching
  // done frame, no matter where the read boundaries fall.
  std::vector<std::uint8_t> stream;
  for (const std::uint32_t s : {0u, 1u, 2u}) {
    const auto frame = task_frame("cluster.echo", s, 3);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    exec::ShardSession session;
    std::vector<exec::ShardSession::Reply> replies;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      for (auto& reply :
           session.consume(std::span(stream.data() + off, n))) {
        replies.push_back(std::move(reply));
      }
    }
    ASSERT_EQ(replies.size(), 3u) << "chunk size " << chunk;
    for (std::uint32_t s = 0; s < 3; ++s) {
      EXPECT_EQ(replies[s].shard_index, s) << "chunk size " << chunk;
      EXPECT_FALSE(replies[s].close);
      const auto frames = parse_reply(replies[s].bytes);
      ASSERT_EQ(frames.size(), 2u) << "chunk size " << chunk;
      EXPECT_EQ(frames[0].type, wire::FrameType::result);
      EXPECT_EQ(frames[1].type, wire::FrameType::done);
      EXPECT_EQ(wire::parse_done(frames[1].payload), s);
    }
  }
}

TEST(ClusterSessionTest, CachedBlobTasksReuseTheConnectionBlob) {
  exec::ShardSession session;
  // First task ships the blob inline (task_frame uses {1, 2, 3}) and
  // populates the session cache ...
  ASSERT_EQ(session.consume(task_frame("cluster.echo", 0, 4)).size(), 1u);
  // ... so a follow-up task can reference it instead of re-shipping.
  wire::ShardTask cached;
  cached.workload = "cluster.echo";
  cached.shard_index = 1;
  cached.shard_count = 4;
  cached.threads = 1;
  cached.blob_cached = true;
  std::vector<std::uint8_t> frame;
  wire::append_frame(frame, wire::FrameType::task,
                     wire::serialize_task(cached));
  const auto replies = session.consume(frame);
  ASSERT_EQ(replies.size(), 1u);
  const auto frames = parse_reply(replies[0].bytes);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[0].type, wire::FrameType::result);
  wire::Reader r(frames[0].payload);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.u32(), 4u);
  // The echo handler appends the blob it saw: the cached {1, 2, 3}.
  const auto blob = r.take(3);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(blob[0], 1u);
  EXPECT_EQ(blob[1], 2u);
  EXPECT_EQ(blob[2], 3u);
}

TEST(ClusterSessionTest, CachedTaskWithoutPriorBlobIsAnError) {
  exec::ShardSession session;
  wire::ShardTask cached;
  cached.workload = "cluster.echo";
  cached.shard_index = 0;
  cached.shard_count = 1;
  cached.blob_cached = true;
  std::vector<std::uint8_t> frame;
  wire::append_frame(frame, wire::FrameType::task,
                     wire::serialize_task(cached));
  const auto replies = session.consume(frame);
  ASSERT_EQ(replies.size(), 1u);
  // A structured (deterministic) error, not a dead stream: the
  // coordinator aborts the run, other connections are unaffected.
  EXPECT_FALSE(replies[0].close);
  const auto frames = parse_reply(replies[0].bytes);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::error);
}

// --- the serve connection's shard upgrade ---------------------------------

TEST(ClusterUpgradeTest, FramePipelinedBehindTheUpgradeLineIsNeverNdjson) {
  // A coordinator may send the upgrade line and its first task frame in
  // one write. Every byte behind the upgrade line is HMDF, so a newline
  // inside the frame must not be read as a request line: the reply is the
  // upgrade response, then exactly one result and one done frame. The
  // same write leads with 40 whatif lines, enough for the daemon to
  // answer them on the pool at four threads; each gets its reply, in
  // order, before the upgrade response.
  serve::ServiceOptions options;
  options.compute_threads = 4;
  options.max_concurrent = 4;
  serve::Service service(core::paper::example_model(),
                         core::paper::trial_profile(),
                         core::paper::field_profile(), options);
  serve::Server server(service, {});
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const timeval receive_timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout,
               sizeof receive_timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  constexpr std::size_t kLeadingLines = 40;
  std::string burst;
  for (std::size_t i = 0; i < kLeadingLines; ++i) {
    burst += "{\"op\":\"whatif\",\"id\":" + std::to_string(i) +
             ",\"params\":{\"reader_factor\":" + std::to_string(1 + i % 3) +
             "}}\n";
  }
  burst += exec::kShardUpgradeLine;
  const std::vector<std::uint8_t> frame =
      task_frame("cluster.echo", 0, 1, false, {'\n', 'x', '\n'});
  burst.append(frame.begin(), frame.end());
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  // Half-close: the daemon ends the shard stream at EOF and closes, so the
  // whole reply can be read to the end.
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  server.shutdown();

  std::size_t line_start = 0;
  for (std::size_t i = 0; i < kLeadingLines; ++i) {
    const std::size_t end = reply.find('\n', line_start);
    ASSERT_NE(end, std::string::npos) << reply;
    const std::string line = reply.substr(line_start, end - line_start);
    EXPECT_EQ(line.rfind("{\"id\":" + std::to_string(i) + ",\"ok\":true", 0),
              0u)
        << line;
    line_start = end + 1;
  }
  const std::size_t newline = reply.find('\n', line_start);
  ASSERT_NE(newline, std::string::npos) << reply;
  EXPECT_NE(reply.substr(line_start, newline - line_start)
                .find("\"shard\":\"ready\""),
            std::string::npos)
      << reply;
  const std::string_view frame_bytes =
      std::string_view(reply).substr(newline + 1);
  const auto frames = parse_reply(
      {reinterpret_cast<const std::uint8_t*>(frame_bytes.data()),
       frame_bytes.size()});
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, wire::FrameType::result);
  wire::Reader r(frames[0].payload);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(frames[1].type, wire::FrameType::done);
  EXPECT_EQ(wire::parse_done(frames[1].payload), 0u);
}

// --- ClusterRunner shard resolution (no sockets) --------------------------

TEST(ClusterRunnerTest, ResolvedShardsDefaultsToWorkerCount) {
  exec::ClusterRunner runner(
      cluster_options({"a:1", "b:1", "c:1"}, /*shards=*/0));
  EXPECT_EQ(runner.resolved_shards(), 3u);
  exec::ClusterRunner pinned(cluster_options({"a:1"}, /*shards=*/7));
  EXPECT_EQ(pinned.resolved_shards(), 7u);
}

// --- ClusterRunner against real daemons -----------------------------------

TEST(ClusterRunnerTest, TrialIsBitIdenticalAcrossWorkersAndShards) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  SpawnedDaemon b;
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  constexpr std::uint64_t kCases = 20'000;
  constexpr std::uint64_t kSeed = 20030625;
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  const sim::TrialData reference =
      sim::TrialRunner(world, kCases).run(kSeed, exec::Config{2});
  for (const unsigned shards : {2u, 5u}) {
    exec::ClusterRunner cluster(
        cluster_options({a.address(), b.address()}, shards));
    const sim::TrialData clustered =
        sim::run_trial_clustered(world, kCases, kSeed, cluster);
    ASSERT_EQ(clustered.records.size(), reference.records.size());
    for (std::size_t i = 0; i < reference.records.size(); ++i) {
      ASSERT_EQ(clustered.records[i].class_index,
                reference.records[i].class_index)
          << "shards " << shards << " case " << i;
      ASSERT_EQ(clustered.records[i].machine_failed,
                reference.records[i].machine_failed);
      ASSERT_EQ(clustered.records[i].human_failed,
                reference.records[i].human_failed);
    }
  }
}

TEST(ClusterRunnerTest, SweepAndMinimiseAreBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  const std::array<SpawnedDaemon, 4> daemons;
  for (const SpawnedDaemon& daemon : daemons) ASSERT_TRUE(daemon.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(513);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});
  const auto best_reference =
      analyzer.minimise_cost(500.0, 20.0, -4.0, 4.0, 999, exec::Config{2});

  // A fixed shard count, and one shard per worker.
  for (const unsigned workers : kFleetSizes) {
    for (const unsigned shards : {3u, workers}) {
      SCOPED_TRACE(testing::Message()
                   << workers << " workers, " << shards << " shards");
      exec::ClusterRunner cluster(
          cluster_options(addresses_of(std::span(daemons).first(workers)),
                          shards));
      test::expect_points_bit_identical(
          core::sweep_clustered(analyzer, thresholds, cluster), reference);
      test::expect_point_bit_identical(
          core::minimise_cost_clustered(analyzer, 500.0, 20.0, -4.0, 4.0,
                                        999, cluster),
          best_reference);

      // Flat plateau: the earliest-grid-point tie rule must survive the
      // network transport too.
      const auto tie = core::minimise_cost_clustered(
          analyzer, 0.0, 0.0, -4.0, 4.0, 999, cluster);
      EXPECT_EQ(tie.threshold, -4.0);

      // All three runs reused the same warm pool; nothing was retried, and
      // each run completed one task per shard.
      std::uint64_t tasks = 0;
      for (const auto& stats : cluster.worker_stats()) {
        EXPECT_EQ(stats.retries, 0u) << stats.address;
        tasks += stats.tasks;
      }
      EXPECT_EQ(tasks, 3u * shards);
    }
  }
}

TEST(ClusterRunnerTest, SweepZeroRecallBranchIsBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  SpawnedDaemon b;
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The coordinator recomputes ppv from the shipped columns, so its
  // recall_rate == 0 branch must match the kernel's bit for bit.
  const core::TradeoffAnalyzer analyzer = test::silent_recall_analyzer();
  const std::vector<double> thresholds = test::wide_thresholds(801);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});
  ASSERT_TRUE(test::reaches_zero_recall(reference));
  exec::ClusterRunner cluster(
      cluster_options({a.address(), b.address()}, /*shards=*/5));
  test::expect_points_bit_identical(
      core::sweep_clustered(analyzer, thresholds, cluster), reference);
}

TEST(ClusterRunnerTest, PosteriorDrawsAreBitIdenticalAndRngInLockstep) {
  HMDIV_REQUIRE_DAEMONS();
  const std::array<SpawnedDaemon, 4> daemons;
  for (const SpawnedDaemon& daemon : daemons) ASSERT_TRUE(daemon.ok());
  const core::PosteriorModelSampler sampler = paper_sampler();
  const core::DemandProfile field = core::paper::field_profile();
  constexpr std::size_t kDraws = 1500;  // 3 chunks of 512, last one ragged

  std::vector<double> reference(kDraws);
  stats::Rng reference_rng(42);
  sampler.sample_failure_probabilities(field, reference_rng, reference,
                                       exec::Config{2});
  const std::uint64_t reference_next = reference_rng.next_u64();
  stats::Rng predict_reference_rng(11);
  const auto predicted_reference = sampler.predict(
      field, predict_reference_rng, 1024, 0.95, exec::Config{2});

  // A fixed shard count, and one shard per worker.
  for (const unsigned workers : kFleetSizes) {
    for (const unsigned shards : {3u, workers}) {
      SCOPED_TRACE(testing::Message()
                   << workers << " workers, " << shards << " shards");
      exec::ClusterRunner cluster(
          cluster_options(addresses_of(std::span(daemons).first(workers)),
                          shards));
      std::vector<double> clustered(kDraws);
      stats::Rng clustered_rng(42);
      core::sample_failure_probabilities_clustered(sampler, field,
                                                   clustered_rng, clustered,
                                                   cluster);
      for (std::size_t i = 0; i < kDraws; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(clustered[i]),
                  std::bit_cast<std::uint64_t>(reference[i]))
            << "draw " << i;
      }
      // Both paths consume exactly one step of the caller's rng.
      EXPECT_EQ(clustered_rng.next_u64(), reference_next);

      stats::Rng predict_rng(11);
      const auto predicted = core::predict_clustered(
          sampler, field, predict_rng, 1024, 0.95, cluster);
      EXPECT_EQ(predicted.mean, predicted_reference.mean);
      EXPECT_EQ(predicted.lower, predicted_reference.lower);
      EXPECT_EQ(predicted.upper, predicted_reference.upper);
    }
  }
}

TEST(ClusterRunnerTest, UnknownWorkloadAbortsWithClusterError) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  ASSERT_TRUE(a.ok());
  exec::ClusterRunner cluster(cluster_options({a.address()}, /*shards=*/2));
  const std::vector<std::uint8_t> blob{1, 2, 3};
  EXPECT_THROW((void)cluster.run("no.such.workload", blob),
               exec::ClusterError);
}

TEST(ClusterRunnerTest, MalformedBlobAbortsWithClusterError) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  ASSERT_TRUE(a.ok());
  exec::ClusterRunner cluster(cluster_options({a.address()}, /*shards=*/2));
  // A truncated core.sweep blob is a deterministic workload failure: no
  // reassignment can fix it, so the run must abort, not retry forever.
  const std::vector<std::uint8_t> garbage{9, 9, 9};
  EXPECT_THROW((void)cluster.run(std::string(core::kSweepShardWorkload),
                                 garbage),
               exec::ClusterError);
}

TEST(ClusterRunnerTest, AllWorkersDeadThrowsClusterError) {
  HMDIV_REQUIRE_DAEMONS();
  // Every worker refuses the connect and nothing has completed, so the
  // run fails at once instead of sleeping out the re-probe backoff.
  exec::ClusterOptions options =
      cluster_options({"127.0.0.1:1", "127.0.0.1:1"}, /*shards=*/2);
  options.connect_timeout = 2s;
  options.readmit_after = 30s;
  exec::ClusterRunner cluster(std::move(options));
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW((void)core::sweep_clustered(analyzer,
                                           reference_thresholds(16), cluster),
               exec::ClusterError);
  EXPECT_LT(std::chrono::steady_clock::now() - started, 10s);
}

TEST(ClusterRunnerTest, DeadWorkerFailsOverToHealthyOne) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon live;
  ASSERT_TRUE(live.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(257);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  // Worker 0 is a connection-refused address: its initial task must be
  // re-issued to the live worker and the run still completes bit-exact.
  exec::ClusterOptions options =
      cluster_options({"127.0.0.1:1", live.address()}, /*shards=*/3);
  options.connect_timeout = 2s;
  exec::ClusterRunner cluster(std::move(options));
  test::expect_points_bit_identical(
      core::sweep_clustered(analyzer, thresholds, cluster), reference);
  const auto stats = cluster.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  // A connect refusal happens before a task is ever issued, so it marks
  // the worker failed (last_error) without counting a retry — retries
  // tally tasks abandoned mid-flight (see the fault tests below).
  EXPECT_EQ(stats[0].tasks, 0u);
  EXPECT_FALSE(stats[0].last_error.empty());
  EXPECT_EQ(stats[1].tasks, 3u);
}

// --- injected transport faults --------------------------------------------

TEST(ClusterFaultTest, ConnectionResetReassignsBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  // The faulty daemon RSTs the connection instead of shipping its first
  // reply, whichever task that is — '*' keeps the fault deterministic now
  // that concurrent startup makes the task → worker mapping timing-
  // dependent. A worker takes tasks as soon as its upgrade completes, so
  // the clean worker holds one task at a time (window 1) and answers each
  // 50 ms late: whichever worker is up first, the faulty one is handed a
  // task long before the clean one could finish all four.
  SpawnedDaemon faulty("connreset:*");
  SpawnedDaemon clean("delay:*:50");
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE(clean.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(257);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  exec::ClusterOptions options =
      cluster_options({faulty.address(), clean.address()}, /*shards=*/4);
  options.window = 1;
  exec::ClusterRunner cluster(std::move(options));
  test::expect_points_bit_identical(
      core::sweep_clustered(analyzer, thresholds, cluster), reference);
  const auto stats = cluster.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(stats[0].retries, 1u);
  EXPECT_FALSE(stats[0].last_error.empty());
  EXPECT_EQ(stats[1].tasks, 4u);  // the clean worker finished every shard
}

TEST(ClusterFaultTest, SlowDrainPastDeadlineReassignsBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  // The faulty daemon ships half of every reply, then stalls for ~1.5 s —
  // far past the 500 ms task deadline, so the coordinator must drop it
  // mid-frame and re-issue its tasks to the clean worker. As in the reset
  // test, the clean worker holds one task at a time and answers 100 ms
  // late, so the faulty one is handed a task whichever is up first.
  SpawnedDaemon faulty("slowdrain:*");
  SpawnedDaemon clean("delay:*:100");
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE(clean.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(129);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  exec::ClusterOptions options =
      cluster_options({faulty.address(), clean.address()}, /*shards=*/2);
  options.window = 1;
  options.task_deadline = 500ms;
  exec::ClusterRunner cluster(std::move(options));
  test::expect_points_bit_identical(
      core::sweep_clustered(analyzer, thresholds, cluster), reference);
  const auto stats = cluster.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(stats[0].retries, 1u);
  EXPECT_EQ(stats[1].tasks, 2u);
}

// --- pipelined windows, span sizing, delay faults, readmission ------------

TEST(ClusterRunnerTest, WindowAndTaskSizingAreBitIdenticalAcrossDepths) {
  HMDIV_REQUIRE_DAEMONS();
  SpawnedDaemon a;
  SpawnedDaemon b;
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(513);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  constexpr std::uint64_t kCases = 20'000;
  constexpr std::uint64_t kSeed = 20030625;
  sim::TabularWorld world(core::paper::example_model(),
                          core::paper::trial_profile());
  const sim::TrialData trial_reference =
      sim::TrialRunner(world, kCases).run(kSeed, exec::Config{2});

  // Every window depth × shard-count composition — including shards=0,
  // where the run picks its own adaptive micro-shard count from the
  // items hint — must reproduce the in-process output bit for bit.
  for (const unsigned window : {1u, 2u, 4u}) {
    for (const unsigned shards : {0u, 7u}) {
      exec::ClusterOptions options =
          cluster_options({a.address(), b.address()}, shards);
      options.window = window;
      exec::ClusterRunner cluster(std::move(options));
      test::expect_points_bit_identical(
          core::sweep_clustered(analyzer, thresholds, cluster), reference);
      const sim::TrialData trial =
          sim::run_trial_clustered(world, kCases, kSeed, cluster);
      ASSERT_EQ(trial.records.size(), trial_reference.records.size())
          << "window " << window << " shards " << shards;
      for (std::size_t i = 0; i < trial.records.size(); ++i) {
        ASSERT_EQ(trial.records[i].class_index,
                  trial_reference.records[i].class_index)
            << "window " << window << " shards " << shards << " case " << i;
        ASSERT_EQ(trial.records[i].machine_failed,
                  trial_reference.records[i].machine_failed);
        ASSERT_EQ(trial.records[i].human_failed,
                  trial_reference.records[i].human_failed);
      }
      for (const auto& stats : cluster.worker_stats()) {
        EXPECT_EQ(stats.retries, 0u) << stats.address;
      }
    }
  }
}

TEST(ClusterFaultTest, DelayedRepliesStayBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  // Injected per-reply latency (the WAN emulation the pipeline exists to
  // hide) must be invisible in the output: replies still arrive in FIFO
  // order per connection, just later.
  SpawnedDaemon delayed("delay:*:25");
  SpawnedDaemon clean;
  ASSERT_TRUE(delayed.ok());
  ASSERT_TRUE(clean.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(257);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  exec::ClusterOptions options =
      cluster_options({delayed.address(), clean.address()}, /*shards=*/0);
  options.window = 4;
  exec::ClusterRunner cluster(std::move(options));
  test::expect_points_bit_identical(
      core::sweep_clustered(analyzer, thresholds, cluster), reference);
  for (const auto& stats : cluster.worker_stats()) {
    EXPECT_EQ(stats.retries, 0u) << stats.address;  // late is not lost
  }
}

TEST(ClusterFaultTest, SidelinedWorkerIsReadmittedBitIdentical) {
  HMDIV_REQUIRE_DAEMONS();
  // Worker 0 RSTs every reply it ships, so it is sidelined on first
  // contact; worker 1 answers each reply ~20 ms late, keeping the run
  // alive past the readmission backoff. The probe must reconnect worker 0
  // (readmitted >= 1) and the output must stay bit-identical through
  // sideline, requeue, readmission, and the second sideline that follows.
  SpawnedDaemon faulty("connreset:*");
  SpawnedDaemon slow("delay:*:20");
  ASSERT_TRUE(faulty.ok());
  ASSERT_TRUE(slow.ok());
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(2048);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  exec::ClusterOptions options =
      cluster_options({faulty.address(), slow.address()}, /*shards=*/0);
  options.window = 2;
  // Well under the run length: the slow worker needs several delayed
  // replies to drain the queue, so the probe fires while work remains.
  options.readmit_after = 30ms;
  exec::ClusterRunner cluster(std::move(options));
  test::expect_points_bit_identical(
      core::sweep_clustered(analyzer, thresholds, cluster), reference);
  const auto stats = cluster.worker_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GE(stats[0].retries, 1u);
  EXPECT_GE(stats[0].readmitted, 1u);
  EXPECT_FALSE(stats[0].last_error.empty());
  EXPECT_GT(stats[1].tasks, 0u);
}

TEST(ClusterFaultTest, UnresponsiveWorkerDoesNotStallTheRun) {
  HMDIV_REQUIRE_DAEMONS();
  // Worker 0 is a loopback socket that listens but never accepts: the
  // kernel completes the TCP handshake, so the coordinator sends its
  // upgrade line and waits out connect_timeout for a reply that never
  // comes. The healthy worker must not wait with it: each run takes a few
  // milliseconds, not the 3 s timeout.
  SpawnedDaemon live;
  ASSERT_TRUE(live.ok());
  const int silent = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(silent, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::bind(silent, reinterpret_cast<sockaddr*>(&addr), addr_len), 0);
  ASSERT_EQ(::listen(silent, 4), 0);
  ASSERT_EQ(
      ::getsockname(silent, reinterpret_cast<sockaddr*>(&addr), &addr_len),
      0);
  const std::string silent_address =
      "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds = reference_thresholds(257);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});

  exec::ClusterOptions options =
      cluster_options({silent_address, live.address()}, /*shards=*/0);
  options.connect_timeout = 3s;
  exec::ClusterRunner cluster(std::move(options));
  // The second run starts with worker 0 still mid-upgrade from the first.
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(testing::Message() << "run " << run);
    const auto started = std::chrono::steady_clock::now();
    test::expect_points_bit_identical(
        core::sweep_clustered(analyzer, thresholds, cluster), reference);
    EXPECT_LT(std::chrono::steady_clock::now() - started, 1s);
  }
  ::close(silent);
}

}  // namespace
}  // namespace hmdiv
