// Tests for the multi-process shard engine: the wire protocol
// (exec/shard_protocol.hpp), the fork/exec runner (exec/shard.hpp), the
// --shard-worker loop, the 1-vs-N bit-identity contract of every sharded
// workload, and structured failure handling under injected worker faults.
//
// The fork/exec tests re-enter this very binary through the
// --shard-worker flag (see tests/test_main.cpp), so workload handlers
// registered in this TU are available in the workers too. ThreadSanitizer
// does not support fork/exec'd children that keep running threaded code,
// so every test that actually spawns workers self-skips under TSan; the
// protocol and determinism-contract pieces that stay in-process still run.
#include "exec/shard.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/config.hpp"
#include "obs/obs.hpp"
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

// Fork/exec of a threaded parent is outside TSan's supported model; the
// runner itself is exercised by the non-sanitized jobs.
#define HMDIV_SKIP_FORK_UNDER_TSAN()                                   \
  do {                                                                 \
    if (HMDIV_TSAN) {                                                  \
      GTEST_SKIP() << "fork/exec workers are not TSan-instrumentable"; \
    }                                                                  \
  } while (0)

namespace hmdiv {
namespace {

namespace wire = exec::wire;

/// Scoped environment override that restores the previous value.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

// --- Test workloads (registered in workers too: same binary) --------------

std::vector<std::uint8_t> echo_handler(const wire::ShardTask& task) {
  wire::Writer w;
  w.u32(task.shard_index);
  w.u32(task.shard_count);
  w.bytes(task.blob);
  return w.take();
}

std::vector<std::uint8_t> boom_handler(const wire::ShardTask&) {
  throw std::runtime_error("deliberate test explosion");
}

const exec::ShardWorkloadRegistration kEchoRegistration{"test.echo",
                                                        &echo_handler};
const exec::ShardWorkloadRegistration kBoomRegistration{"test.boom",
                                                        &boom_handler};

exec::ShardOptions test_options(unsigned shards,
                                std::chrono::milliseconds deadline =
                                    std::chrono::milliseconds(60'000)) {
  exec::ShardOptions options;
  options.shards = shards;
  options.threads = 1;
  options.deadline = deadline;
  return options;
}

/// Runs a workload expecting a ShardError and returns its failure record.
exec::ShardFailure expect_failure(std::string_view workload,
                                  const exec::ShardOptions& options) {
  const exec::ShardRunner runner(options);
  try {
    static_cast<void>(runner.run(workload, {}));
  } catch (const exec::ShardError& e) {
    return e.failure();
  }
  ADD_FAILURE() << "expected ShardError from workload " << workload;
  return exec::ShardFailure{};
}

/// After every failure path the runner must have reaped all children.
void expect_no_zombies() {
  errno = 0;
  const pid_t pid = ::waitpid(-1, nullptr, WNOHANG);
  EXPECT_TRUE(pid == -1 && errno == ECHILD)
      << "unreaped child remains (waitpid returned " << pid << ")";
}

// --- Protocol -------------------------------------------------------------

TEST(ShardProtocol, WriterReaderRoundTrip) {
  wire::Writer w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(0.1);  // not exactly representable: must round-trip bit-for-bit
  w.str("easy");
  const std::vector<double> values{1.5, -0.0, 3.25e-300};
  w.doubles(values);
  const std::vector<std::uint8_t> payload = w.take();

  wire::Reader r(payload);
  EXPECT_EQ(r.u8(), 7U);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_EQ(r.str(), "easy");
  const std::vector<double> back = r.doubles();
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(values[i]));
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(ShardProtocol, ReaderThrowsOnUnderrun) {
  wire::Writer w;
  w.u32(1);
  const std::vector<std::uint8_t> payload = w.data();
  wire::Reader r(payload);
  EXPECT_THROW(r.u64(), wire::ProtocolError);
}

TEST(ShardProtocol, DoublesPrefixPastThePayloadIsRejected) {
  // 2^61 doubles: n * 8 wraps to 0, so only a check against the bytes
  // left stops the decoder from sizing a vector from the count.
  wire::Writer w;
  w.u64(std::uint64_t{1} << 61);
  w.f64(1.0);
  const std::vector<std::uint8_t> payload = w.take();
  wire::Reader r(payload);
  EXPECT_THROW(static_cast<void>(r.doubles()), wire::ProtocolError);
}

TEST(ShardProtocol, CountIsBoundedByTheRemainingPayload) {
  wire::Writer w;
  w.u64(3);
  w.u64(0);
  w.u64(0);
  w.u64(0);
  const std::vector<std::uint8_t> payload = w.take();
  EXPECT_EQ(wire::Reader(payload).count(8), 3u);
  EXPECT_THROW(static_cast<void>(wire::Reader(payload).count(9)),
               wire::ProtocolError);
}

TEST(ShardProtocol, SweepBlobWithHugeResponseCountIsRejected) {
  // A well-formed analyzer prefix whose fn_response count reads 2^40:
  // the decoder must refuse it before allocating 16 TB of responses.
  wire::Writer w;
  w.doubles(std::vector<double>{2.0});   // cancer class means
  w.doubles(std::vector<double>{-2.0});  // normal class means
  w.u64(1);                              // cancer profile: one class
  w.str("c");
  w.doubles(std::vector<double>{1.0});
  w.u64(std::uint64_t{1} << 40);  // fn_response count
  w.f64(0.1);
  w.f64(0.2);
  wire::ShardTask task;
  task.workload = std::string(core::kSweepShardWorkload);
  task.blob = w.take();
  const exec::ShardHandler handler =
      exec::find_shard_workload(core::kSweepShardWorkload);
  ASSERT_NE(handler, nullptr);
  EXPECT_THROW(static_cast<void>(handler(task)), wire::ProtocolError);
}

TEST(ShardProtocol, FrameParserReassemblesByteByByte) {
  wire::Writer w;
  w.str("payload bytes");
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameType::result, w.data());

  wire::FrameParser parser;
  std::size_t frames = 0;
  for (const std::uint8_t byte : stream) {
    parser.feed(std::span<const std::uint8_t>(&byte, 1));
    while (auto frame = parser.next()) {
      ++frames;
      EXPECT_EQ(frame->type, wire::FrameType::result);
      EXPECT_EQ(frame->payload, w.data());
    }
  }
  EXPECT_EQ(frames, 1U);
  EXPECT_TRUE(parser.idle());
}

TEST(ShardProtocol, FrameParserFlagsTruncation) {
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameType::result,
                     std::vector<std::uint8_t>(100, 0x42));
  stream.resize(stream.size() - 10);  // lose the tail, as a dying worker does
  wire::FrameParser parser;
  parser.feed(stream);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.idle());  // EOF now would mean "truncated"
}

TEST(ShardProtocol, FrameParserRejectsBadMagic) {
  std::vector<std::uint8_t> garbage(32, 0xAB);
  wire::FrameParser parser;
  parser.feed(garbage);
  EXPECT_THROW(static_cast<void>(parser.next()), wire::ProtocolError);
}

TEST(ShardProtocol, FrameParserRejectsOversizedPayloadLength) {
  wire::Writer header;
  header.u32(wire::kFrameMagic);
  header.u32(static_cast<std::uint32_t>(wire::FrameType::result));
  header.u64(wire::kMaxFramePayload + 1);
  wire::FrameParser parser;
  parser.feed(header.data());
  EXPECT_THROW(static_cast<void>(parser.next()), wire::ProtocolError);
}

TEST(ShardProtocol, TaskRoundTrip) {
  wire::ShardTask task;
  task.workload = "sim.trial";
  task.shard_index = 3;
  task.shard_count = 8;
  task.threads = 2;
  task.obs_enabled = true;
  task.blob = {1, 2, 3, 4, 5};
  const wire::ShardTask back = wire::parse_task(wire::serialize_task(task));
  EXPECT_EQ(back.workload, task.workload);
  EXPECT_EQ(back.shard_index, task.shard_index);
  EXPECT_EQ(back.shard_count, task.shard_count);
  EXPECT_EQ(back.threads, task.threads);
  EXPECT_EQ(back.obs_enabled, task.obs_enabled);
  EXPECT_EQ(back.blob, task.blob);
}

TEST(ShardProtocol, TaskRejectsShardIndexOutOfRange) {
  wire::ShardTask task;
  task.workload = "w";
  task.shard_index = 4;
  task.shard_count = 4;
  EXPECT_THROW(static_cast<void>(wire::parse_task(wire::serialize_task(task))),
               wire::ProtocolError);
}

TEST(ShardProtocol, TaskSpanRoundTripsAndValidates) {
  wire::ShardTask task;
  task.workload = "w";
  task.shard_index = 2;
  task.shard_count = 8;
  task.span = 3;
  task.blob_cached = true;  // cached tasks carry no inline blob
  const wire::ShardTask back = wire::parse_task(wire::serialize_task(task));
  EXPECT_EQ(back.span, 3u);
  EXPECT_TRUE(back.blob_cached);
  EXPECT_TRUE(back.blob.empty());

  // A span of zero, a span running past the shard count, and a cached
  // task that still carries an inline blob are all malformed.
  task.span = 0;
  EXPECT_THROW(static_cast<void>(wire::parse_task(wire::serialize_task(task))),
               wire::ProtocolError);
  task.span = 7;  // index 2 + span 7 > count 8
  EXPECT_THROW(static_cast<void>(wire::parse_task(wire::serialize_task(task))),
               wire::ProtocolError);
  task.span = 3;
  task.blob = {1};
  EXPECT_THROW(static_cast<void>(wire::parse_task(wire::serialize_task(task))),
               wire::ProtocolError);
}

TEST(ShardProtocol, DoneFrameRoundTrips) {
  EXPECT_EQ(wire::parse_done(wire::serialize_done(0)), 0u);
  EXPECT_EQ(wire::parse_done(wire::serialize_done(255)), 255u);
  const std::vector<std::uint8_t> truncated{1, 2};
  EXPECT_THROW(static_cast<void>(wire::parse_done(truncated)),
               wire::ProtocolError);
  const std::vector<std::uint8_t> trailing{1, 0, 0, 0, 9};
  EXPECT_THROW(static_cast<void>(wire::parse_done(trailing)),
               wire::ProtocolError);
}

TEST(ShardProtocol, TaskRangeIsTheUnionOfItsMicroShards) {
  // Nested cuts: a span-k task over micro-shards [s, s+k) must cover
  // exactly the union of the k single-shard ranges — that is what lets
  // the coordinator resize tasks without moving any partition boundary.
  for (const std::uint64_t items : {0ull, 5ull, 97ull, 4097ull}) {
    for (const std::uint32_t count : {1u, 4u, 16u}) {
      for (std::uint32_t s = 0; s < count; ++s) {
        for (std::uint32_t span = 1; s + span <= count; ++span) {
          wire::ShardTask task;
          task.shard_index = s;
          task.shard_count = count;
          task.span = span;
          const wire::ShardRange range = wire::task_range(items, task);
          EXPECT_EQ(range.begin, wire::shard_range(items, s, count).begin);
          EXPECT_EQ(range.end,
                    wire::shard_range(items, s + span - 1, count).end);
          std::uint64_t covered = 0;
          for (std::uint32_t k = 0; k < span; ++k) {
            covered += wire::shard_range(items, s + k, count).size();
          }
          EXPECT_EQ(range.size(), covered);
        }
      }
    }
  }
}

TEST(ShardProtocol, FrameParserReassemblesAcrossEveryChunkBoundary) {
  // A multi-frame stream — result, empty-payload obs, done — fed at every
  // fixed chunk size from 1 byte up to the whole stream: the parser must
  // yield identical frames no matter how read() slices the bytes.
  std::vector<std::uint8_t> stream;
  wire::Writer first;
  first.str("first payload");
  wire::append_frame(stream, wire::FrameType::result, first.data());
  wire::append_frame(stream, wire::FrameType::obs,
                     std::vector<std::uint8_t>{});
  wire::append_frame(stream, wire::FrameType::done, wire::serialize_done(7));

  const auto collect = [&](std::size_t chunk) {
    wire::FrameParser parser;
    std::vector<wire::Frame> frames;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      parser.feed(std::span<const std::uint8_t>(stream.data() + off, n));
      while (auto frame = parser.next()) frames.push_back(std::move(*frame));
    }
    EXPECT_TRUE(parser.idle());
    return frames;
  };
  const auto reference = collect(stream.size());
  ASSERT_EQ(reference.size(), 3u);
  for (std::size_t chunk = 1; chunk < stream.size(); ++chunk) {
    const auto frames = collect(chunk);
    ASSERT_EQ(frames.size(), reference.size()) << "chunk size " << chunk;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].type, reference[i].type) << "chunk " << chunk;
      EXPECT_EQ(frames[i].payload, reference[i].payload) << "chunk " << chunk;
    }
  }
}

TEST(ShardProtocol, FrameParserSurvivesRandomizedSplits) {
  // Eight frames with payload sizes straddling the 16-byte header, fed in
  // randomly-sized segments (fixed-seed xorshift, so failures replay).
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> sizes{0, 1, 15, 16, 17, 64, 255, 300};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    wire::append_frame(
        stream, wire::FrameType::result,
        std::vector<std::uint8_t>(sizes[i],
                                  static_cast<std::uint8_t>(i + 1)));
  }
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next_random = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 50; ++round) {
    wire::FrameParser parser;
    std::size_t frames = 0;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + next_random() % 37, stream.size() - off);
      parser.feed(std::span<const std::uint8_t>(stream.data() + off, n));
      while (auto frame = parser.next()) {
        ASSERT_LT(frames, sizes.size());
        EXPECT_EQ(frame->payload.size(), sizes[frames]);
        ++frames;
      }
      off += n;
    }
    EXPECT_EQ(frames, sizes.size()) << "round " << round;
    EXPECT_TRUE(parser.idle());
  }
}

TEST(ShardProtocol, ShardRangePartitionsExactly) {
  // Contiguous, covering, balanced to within one unit, and equal to the
  // floor formula — for sizes around every divisibility edge.
  for (const std::uint64_t items :
       {0ull, 1ull, 5ull, 256ull, 1000ull, 4097ull}) {
    for (const std::uint32_t shards : {1u, 2u, 3u, 7u, 64u, 256u}) {
      std::uint64_t covered = 0;
      std::uint64_t previous_end = 0;
      for (std::uint32_t s = 0; s < shards; ++s) {
        const wire::ShardRange range = wire::shard_range(items, s, shards);
        EXPECT_EQ(range.begin, previous_end);
        EXPECT_LE(range.size(), items / shards + 1);
        EXPECT_EQ(range.begin, s * items / shards);  // small cases: exact
        covered += range.size();
        previous_end = range.end;
      }
      EXPECT_EQ(covered, items);
      EXPECT_EQ(previous_end, items);
    }
  }
}

// --- Runner ---------------------------------------------------------------

TEST(ShardRunnerTest, EchoAcrossWorkersMergesInShardOrder) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const std::vector<std::uint8_t> blob{10, 20, 30};
  const exec::ShardRunner runner(test_options(3));
  const auto payloads = runner.run("test.echo", blob);
  ASSERT_EQ(payloads.size(), 3U);
  for (std::uint32_t s = 0; s < 3; ++s) {
    wire::Reader r(payloads[s]);
    EXPECT_EQ(r.u32(), s);  // ascending shard order = deterministic merge
    EXPECT_EQ(r.u32(), 3U);
    const auto raw = r.take(blob.size());
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(), blob.begin()));
    EXPECT_TRUE(r.exhausted());
  }
  expect_no_zombies();
}

TEST(ShardRunnerTest, UnknownWorkloadIsAStructuredWorkerError) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const exec::ShardFailure failure =
      expect_failure("test.no_such_workload", test_options(2));
  EXPECT_EQ(failure.kind, exec::ShardFailure::Kind::worker);
  EXPECT_NE(failure.detail.find("unknown workload"), std::string::npos);
  expect_no_zombies();
}

TEST(ShardRunnerTest, WorkerExceptionCarriesTheMessage) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const exec::ShardFailure failure =
      expect_failure("test.boom", test_options(2));
  EXPECT_EQ(failure.kind, exec::ShardFailure::Kind::worker);
  EXPECT_NE(failure.detail.find("deliberate test explosion"),
            std::string::npos);
  expect_no_zombies();
}

TEST(ShardRunnerTest, BadWorkerBinarySurfacesExecFailure) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  exec::ShardOptions options = test_options(2);
  options.exe = "/no/such/binary";
  // posix_spawn reports the exec failure itself, before any worker runs.
  const exec::ShardFailure failure = expect_failure("test.echo", options);
  EXPECT_EQ(failure.kind, exec::ShardFailure::Kind::spawn);
  EXPECT_EQ(failure.code, ENOENT);
  expect_no_zombies();
}

std::atomic<std::uint64_t> g_storm_ticks{0};
void storm_tick(int) { g_storm_ticks.fetch_add(1, std::memory_order_relaxed); }

TEST(ShardRunnerTest, SurvivesSigalrmStormWithoutSaRestart) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  // Fault injection for the runner's EINTR handling: a no-op SIGALRM
  // handler installed WITHOUT SA_RESTART interrupts every blocking
  // syscall in the parent (poll, send, recv, waitpid) at ~2 kHz while
  // workers run. Workers are unaffected: a spawned process starts with
  // no interval timers and exec resets the handler.
  struct sigaction storm {};
  storm.sa_handler = &storm_tick;
  sigemptyset(&storm.sa_mask);
  storm.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction old_action {};
  ASSERT_EQ(sigaction(SIGALRM, &storm, &old_action), 0);
  itimerval interval{};
  interval.it_interval.tv_usec = 500;
  interval.it_value.tv_usec = 500;
  ASSERT_EQ(setitimer(ITIMER_REAL, &interval, nullptr), 0);

  const std::vector<std::uint8_t> blob{1, 2, 3, 4};
  std::vector<std::vector<std::uint8_t>> stormy;
  for (int round = 0; round < 5; ++round) {
    const exec::ShardRunner runner(test_options(3));
    stormy = runner.run("test.echo", blob);
    ASSERT_EQ(stormy.size(), 3U);
  }

  // Stop the storm before asserting; gtest is not itself EINTR-proof.
  itimerval off{};
  setitimer(ITIMER_REAL, &off, nullptr);
  sigaction(SIGALRM, &old_action, nullptr);
  EXPECT_GT(g_storm_ticks.load(), 0U) << "storm never fired";

  // The same workload without the storm must be bit-identical.
  const exec::ShardRunner calm_runner(test_options(3));
  EXPECT_EQ(stormy, calm_runner.run("test.echo", blob));
  expect_no_zombies();
}

TEST(ShardRunnerTest, MergesWorkerObsRegistriesIntoParent) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  obs::set_enabled(true);
  obs::Registry::global().reset();
  const exec::ShardRunner runner(test_options(2));
  static_cast<void>(runner.run("test.echo", {}));
  obs::set_enabled(false);
  auto& registry = obs::Registry::global();
  EXPECT_EQ(registry.counter("exec.shard.runs").value(), 1U);
  EXPECT_EQ(registry.counter("exec.shard.workers").value(), 2U);
  // Each worker timed its handler; the merge must carry both recordings.
  EXPECT_EQ(registry.histogram("exec.shard.worker_ns").count(), 2U);
  expect_no_zombies();
}

// --- Worker loop: one --shard-worker process over a socketpair -----------

/// A --shard-worker child of this binary with stdin and stdout on one end
/// of a socketpair; `fd` is the test's end.
struct WorkerProcess {
  pid_t pid = -1;
  int fd = -1;
};

WorkerProcess spawn_shard_worker() {
  int pair[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair), 0);
  const std::string exe = exec::self_exe_path();
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (::dup2(pair[1], STDIN_FILENO) < 0 ||
        ::dup2(pair[1], STDOUT_FILENO) < 0) {
      ::_exit(127);
    }
    const char* argv[] = {exe.c_str(), exec::kShardWorkerFlag.data(),
                          nullptr};
    ::execv(exe.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(pair[1]);
  EXPECT_GT(pid, 0);
  return WorkerProcess{pid, pair[0]};
}

/// Sends `bytes`, half-closes the stream (the worker sees EOF once it has
/// read them), and collects every reply frame until the worker closes.
/// The parser must end idle: the worker never leaves a frame half-sent.
std::vector<wire::Frame> send_and_collect(
    const WorkerProcess& worker, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(worker.fd, bytes.data() + off,
                             bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    EXPECT_GT(n, 0) << "send to worker failed";
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(worker.fd, SHUT_WR);
  wire::FrameParser parser;
  std::vector<wire::Frame> frames;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::read(worker.fd, buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    parser.feed({buffer, static_cast<std::size_t>(n)});
    while (auto frame = parser.next()) frames.push_back(std::move(*frame));
  }
  EXPECT_TRUE(parser.idle());
  ::close(worker.fd);
  return frames;
}

int exit_status(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::vector<std::uint8_t> echo_task_frame(std::uint32_t shard,
                                          std::vector<std::uint8_t> blob,
                                          bool obs_enabled = false) {
  wire::ShardTask task;
  task.workload = "test.echo";
  task.shard_index = shard;
  task.shard_count = 3;
  task.threads = 1;
  task.obs_enabled = obs_enabled;
  task.blob_cached = blob.empty();
  task.blob = std::move(blob);
  std::vector<std::uint8_t> out;
  wire::append_frame(out, wire::FrameType::task, wire::serialize_task(task));
  return out;
}

TEST(ShardWorkerLoop, PipelinedTasksReplyInOrderAndExitZeroOnEof) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const std::vector<std::uint8_t> blob{7, 8, 9};
  // Three task frames in one write: the first carries the blob, the next
  // two ride the worker's cached copy; the middle one ships obs.
  std::vector<std::uint8_t> stream = echo_task_frame(0, blob);
  for (const auto& frame : {echo_task_frame(1, {}, /*obs_enabled=*/true),
                            echo_task_frame(2, {})}) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  const WorkerProcess worker = spawn_shard_worker();
  const std::vector<wire::Frame> frames = send_and_collect(worker, stream);

  const std::vector<wire::FrameType> want{
      wire::FrameType::result, wire::FrameType::done,
      wire::FrameType::result, wire::FrameType::obs, wire::FrameType::done,
      wire::FrameType::result, wire::FrameType::done};
  ASSERT_EQ(frames.size(), want.size());
  std::uint32_t shard = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(frames[i].type, want[i]) << "frame " << i;
    if (frames[i].type == wire::FrameType::result) {
      wire::Reader r(frames[i].payload);
      EXPECT_EQ(r.u32(), shard);
      EXPECT_EQ(r.u32(), 3U);
      const auto raw = r.take(blob.size());
      EXPECT_TRUE(std::equal(raw.begin(), raw.end(), blob.begin()))
          << "task " << shard << " lost the cached blob";
      EXPECT_TRUE(r.exhausted());
    } else if (frames[i].type == wire::FrameType::done) {
      EXPECT_EQ(wire::parse_done(frames[i].payload), shard);
      ++shard;
    } else {
      const obs::Snapshot delta = obs::parse_snapshot(frames[i].payload);
      bool timed = false;
      for (const auto& h : delta.histograms) {
        timed = timed || (h.name == "exec.shard.worker_ns" && h.count == 1);
      }
      EXPECT_TRUE(timed) << "obs delta must carry this task's timing";
    }
  }
  EXPECT_EQ(exit_status(worker.pid), 0);
  expect_no_zombies();
}

TEST(ShardWorkerLoop, StreamCutMidFrameGetsAStructuredError) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  std::vector<std::uint8_t> stream = echo_task_frame(0, {1, 2, 3});
  stream.resize(stream.size() - 5);
  const WorkerProcess worker = spawn_shard_worker();
  const std::vector<wire::Frame> frames = send_and_collect(worker, stream);
  ASSERT_EQ(frames.size(), 1U);
  EXPECT_EQ(frames[0].type, wire::FrameType::error);
  wire::Reader r(frames[0].payload);
  EXPECT_NE(r.str().find("truncated"), std::string::npos);
  EXPECT_EQ(exit_status(worker.pid), 3);
  expect_no_zombies();
}

// --- Determinism: 1 shard == N shards, bit for bit ------------------------

TEST(ShardDeterminism, TrialRecordsAreBitIdenticalAcrossShardCounts) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const core::SequentialModel model = core::paper::example_model();
  const core::DemandProfile profile = core::paper::trial_profile();
  sim::TabularWorld world(model, profile);
  constexpr std::uint64_t kCases = 20'000;  // 5 batches of 4096
  constexpr std::uint64_t kSeed = 20030625;

  sim::TrialRunner runner(world, kCases);
  const sim::TrialData reference = runner.run(kSeed, exec::Config{2});
  const sim::TrialData one =
      sim::run_trial_sharded(world, kCases, kSeed, test_options(1));
  const sim::TrialData three =
      sim::run_trial_sharded(world, kCases, kSeed, test_options(3));

  ASSERT_EQ(reference.records.size(), kCases);
  ASSERT_EQ(one.records.size(), kCases);
  ASSERT_EQ(three.records.size(), kCases);
  for (std::size_t i = 0; i < kCases; ++i) {
    const auto& a = reference.records[i];
    const auto& b = one.records[i];
    const auto& c = three.records[i];
    ASSERT_TRUE(a.class_index == b.class_index &&
                a.machine_failed == b.machine_failed &&
                a.human_failed == b.human_failed)
        << "1-shard mismatch at case " << i;
    ASSERT_TRUE(a.class_index == c.class_index &&
                a.machine_failed == c.machine_failed &&
                a.human_failed == c.human_failed)
        << "3-shard mismatch at case " << i;
  }
  expect_no_zombies();
}

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

TEST(ShardDeterminism, SweepPointsAreBitIdenticalAcrossShardCounts) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  std::vector<double> thresholds(1001);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) / 1000.0;
  }
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});
  const auto sharded = core::sweep_sharded(analyzer, thresholds,
                                           test_options(4));
  test::expect_points_bit_identical(sharded, reference);
  expect_no_zombies();
}

TEST(ShardDeterminism, SweepZeroRecallBranchIsBitIdentical) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  // Out to ±40 the machine is silent on every case at the top of the
  // grid, so nothing is recalled and the merge's recomputed ppv must take
  // the same recall_rate == 0 branch the kernel does.
  const core::TradeoffAnalyzer analyzer = test::silent_recall_analyzer();
  const std::vector<double> thresholds = test::wide_thresholds(801);
  const auto reference = analyzer.sweep(thresholds, exec::Config{2});
  ASSERT_TRUE(test::reaches_zero_recall(reference));
  test::expect_points_bit_identical(
      core::sweep_sharded(analyzer, thresholds, test_options(3)), reference);
  expect_no_zombies();
}

TEST(ShardDeterminism, SweepHandlesFewerPointsThanShards) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const std::vector<double> thresholds{-1.0, 0.0, 1.0};
  const auto reference = analyzer.sweep(thresholds, exec::Config{1});
  const auto sharded = core::sweep_sharded(analyzer, thresholds,
                                           test_options(8));
  ASSERT_EQ(sharded.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(sharded[i].system_fn, reference[i].system_fn);
  }
  expect_no_zombies();
}

TEST(ShardDeterminism, MinimiseCostMatchesInProcessGridSearch) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const auto reference =
      analyzer.minimise_cost(500.0, 20.0, -4.0, 4.0, 2001, exec::Config{2});
  const auto sharded = core::minimise_cost_sharded(
      analyzer, 500.0, 20.0, -4.0, 4.0, 2001, test_options(3));
  test::expect_point_bit_identical(sharded, reference);
  expect_no_zombies();
}

TEST(ShardDeterminism, MinimiseCostTiesResolveToEarliestGridPoint) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  // Zero costs make the objective a flat plateau: every grid point ties at
  // cost 0, so the earliest-grid-point rule must pick the very first
  // threshold — in every shard layout, not just in-process.
  const core::TradeoffAnalyzer analyzer = reference_analyzer();
  const auto reference =
      analyzer.minimise_cost(0.0, 0.0, -4.0, 4.0, 999, exec::Config{2});
  EXPECT_EQ(reference.threshold, -4.0);
  for (const unsigned shards : {2u, 4u, 7u}) {
    const auto sharded = core::minimise_cost_sharded(
        analyzer, 0.0, 0.0, -4.0, 4.0, 999, test_options(shards));
    EXPECT_EQ(sharded.threshold, reference.threshold)
        << "shards: " << shards;
  }
  expect_no_zombies();
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

TEST(ShardDeterminism, PosteriorDrawsAreBitIdenticalAcrossShardCounts) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const core::PosteriorModelSampler sampler = paper_sampler();
  const core::DemandProfile field = core::paper::field_profile();
  constexpr std::size_t kDraws = 1500;  // 3 chunks of 512, last one ragged

  std::vector<double> reference(kDraws);
  stats::Rng reference_rng(42);
  sampler.sample_failure_probabilities(field, reference_rng, reference,
                                       exec::Config{2});

  std::vector<double> sharded(kDraws);
  stats::Rng sharded_rng(42);
  core::sample_failure_probabilities_sharded(sampler, field, sharded_rng,
                                             sharded, test_options(3));

  for (std::size_t i = 0; i < kDraws; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(sharded[i]),
              std::bit_cast<std::uint64_t>(reference[i]))
        << "draw " << i;
  }
  // Both paths consume exactly one step of the caller's rng.
  EXPECT_EQ(reference_rng.next_u64(), sharded_rng.next_u64());
  expect_no_zombies();
}

TEST(ShardDeterminism, PredictShardedMatchesInProcessPredict) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  const core::PosteriorModelSampler sampler = paper_sampler();
  const core::DemandProfile field = core::paper::field_profile();
  stats::Rng reference_rng(11);
  const auto reference =
      sampler.predict(field, reference_rng, 1024, 0.95, exec::Config{2});
  stats::Rng sharded_rng(11);
  const auto sharded = core::predict_sharded(sampler, field, sharded_rng,
                                             1024, 0.95, test_options(2));
  EXPECT_EQ(sharded.mean, reference.mean);
  EXPECT_EQ(sharded.lower, reference.lower);
  EXPECT_EQ(sharded.upper, reference.upper);
  expect_no_zombies();
}

// --- Fault injection ------------------------------------------------------

TEST(ShardFault, SigkilledWorkerSurfacesAsSignalFailure) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  EnvGuard guard("HMDIV_SHARD_FAULT", "sigkill:1");
  const exec::ShardFailure failure =
      expect_failure("test.echo", test_options(3));
  EXPECT_EQ(failure.kind, exec::ShardFailure::Kind::signal);
  EXPECT_EQ(failure.code, SIGKILL);
  EXPECT_EQ(failure.shard, 1U);
  expect_no_zombies();
}

TEST(ShardFault, ShortWriteSurfacesAsTruncatedStream) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  EnvGuard guard("HMDIV_SHARD_FAULT", "shortwrite:0");
  const exec::ShardFailure failure =
      expect_failure("test.echo", test_options(2));
  EXPECT_EQ(failure.kind, exec::ShardFailure::Kind::truncated);
  EXPECT_EQ(failure.shard, 0U);
  expect_no_zombies();
}

TEST(ShardFault, HangingWorkerHitsTheDeadlineNotForever) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  EnvGuard guard("HMDIV_SHARD_FAULT", "hang:0");
  const auto start = std::chrono::steady_clock::now();
  const exec::ShardFailure failure = expect_failure(
      "test.echo", test_options(2, std::chrono::milliseconds(2'000)));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(failure.kind, exec::ShardFailure::Kind::timeout);
  EXPECT_EQ(failure.shard, 0U);
  EXPECT_LT(elapsed, std::chrono::seconds(30)) << "runner must not hang";
  expect_no_zombies();
}

TEST(ShardFault, NonzeroExitSurfacesAsExitCodeFailure) {
  HMDIV_SKIP_FORK_UNDER_TSAN();
  EnvGuard guard("HMDIV_SHARD_FAULT", "exit:1");
  const exec::ShardFailure failure =
      expect_failure("test.echo", test_options(2));
  EXPECT_EQ(failure.kind, exec::ShardFailure::Kind::exit_code);
  EXPECT_EQ(failure.code, 7);
  EXPECT_EQ(failure.shard, 1U);
  expect_no_zombies();
}

TEST(ShardFault, FailureKindsHaveStableNames) {
  EXPECT_EQ(exec::to_string(exec::ShardFailure::Kind::signal), "signal");
  EXPECT_EQ(exec::to_string(exec::ShardFailure::Kind::truncated),
            "truncated");
  EXPECT_EQ(exec::to_string(exec::ShardFailure::Kind::timeout), "timeout");
  EXPECT_EQ(exec::to_string(exec::ShardFailure::Kind::worker), "worker");
}

}  // namespace
}  // namespace hmdiv
