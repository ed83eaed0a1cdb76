// Service-layer tests (PR 7): protocol edges, admission shed, deadline
// expiry, reload invalidation, the zero-allocation whatif hit path, and
// the TCP server's framing / drain / fd hygiene — including SIGTERM
// against the real hmdiv_serve binary when HMDIV_SERVE_BIN is set.
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "core/extrapolation.hpp"
#include "core/model_io.hpp"
#include "core/paper_example.hpp"
#include "exec/config.hpp"
#include "exec/workspace.hpp"
#include "obs/obs.hpp"
#include "serve/admission.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

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

using namespace std::chrono_literals;

serve::Service make_service(serve::ServiceOptions options = {}) {
  return serve::Service(core::paper::example_model(),
                        core::paper::trial_profile(),
                        core::paper::field_profile(), options);
}

std::string respond(serve::Service& service, std::string_view line,
                    serve::RequestScratch& scratch) {
  std::string out;
  service.handle_line(line, scratch, out);
  return out;
}

std::string respond(serve::Service& service, std::string_view line) {
  serve::RequestScratch scratch;
  return respond(service, line, scratch);
}

/// Pulls `"name":<number>` out of a response line.
double number_field(const std::string& response, const std::string& name) {
  const std::string token = "\"" + name + "\":";
  const std::size_t at = response.find(token);
  EXPECT_NE(at, std::string::npos) << name << " missing in " << response;
  if (at == std::string::npos) return 0.0;
  return std::strtod(response.c_str() + at + token.size(), nullptr);
}

bool has_error_code(const std::string& response, const std::string& code) {
  return response.find("\"ok\":false") != std::string::npos &&
         response.find("\"code\":\"" + code + "\"") != std::string::npos;
}

class ObsGuard {
 public:
  explicit ObsGuard(bool enabled) : previous_(obs::enabled()) {
    obs::set_enabled(enabled);
  }
  ~ObsGuard() { obs::set_enabled(previous_); }

 private:
  bool previous_;
};

// --- protocol edges -------------------------------------------------------

TEST(ServeProtocolTest, MalformedJsonIsBadRequest) {
  auto service = make_service();
  const std::string out = respond(service, "{\"op\":\"health\",");
  EXPECT_TRUE(has_error_code(out, "bad_request")) << out;
  EXPECT_NE(out.find("\"id\":null"), std::string::npos) << out;
  EXPECT_EQ(out.back(), '\n');
}

TEST(ServeProtocolTest, NonObjectRootIsBadRequest) {
  auto service = make_service();
  EXPECT_TRUE(has_error_code(respond(service, "[1,2,3]"), "bad_request"));
  EXPECT_TRUE(has_error_code(respond(service, "42"), "bad_request"));
}

TEST(ServeProtocolTest, MissingOpIsBadRequest) {
  auto service = make_service();
  EXPECT_TRUE(has_error_code(respond(service, "{\"id\":1}"), "bad_request"));
}

TEST(ServeProtocolTest, UnknownOpEchoesIdWithUnknownOpCode) {
  auto service = make_service();
  const std::string out =
      respond(service, "{\"op\":\"frobnicate\",\"id\":17}");
  EXPECT_TRUE(has_error_code(out, "unknown_op")) << out;
  EXPECT_NE(out.find("\"id\":17"), std::string::npos) << out;
}

TEST(ServeProtocolTest, StringIdIsEchoedBack) {
  auto service = make_service();
  const std::string out =
      respond(service, "{\"op\":\"health\",\"id\":\"req-9\"}");
  EXPECT_NE(out.find("\"id\":\"req-9\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"ok\":true"), std::string::npos) << out;
}

TEST(ServeProtocolTest, BadParamTypesAreBadRequest) {
  auto service = make_service();
  EXPECT_TRUE(has_error_code(
      respond(service,
              "{\"op\":\"whatif\",\"params\":{\"reader_factor\":\"x\"}}"),
      "bad_request"));
  EXPECT_TRUE(has_error_code(
      respond(service, "{\"op\":\"sweep\",\"params\":{\"steps\":1}}"),
      "bad_request"));
  EXPECT_TRUE(has_error_code(
      respond(service, "{\"op\":\"uq\",\"params\":{\"credibility\":1.5}}"),
      "bad_request"));
  EXPECT_TRUE(has_error_code(
      respond(service,
              "{\"op\":\"whatif\",\"params\":{\"per_class\":{\"nope\":0.5}}}"),
      "bad_request"));
  EXPECT_TRUE(has_error_code(
      respond(service, "{\"op\":\"whatif\",\"deadline_ms\":0}"),
      "bad_request"));
}

TEST(ServeProtocolTest, EveryResponseIsOneLine) {
  auto service = make_service();
  serve::RequestScratch scratch;
  for (const char* line :
       {"{\"op\":\"health\"}", "{\"op\":\"analyze\"}", "{\"op\":\"whatif\"}",
        "{\"op\":\"metrics\"}", "not json", "{\"op\":\"nope\"}"}) {
    const std::string out = respond(service, line, scratch);
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1) << out;
    EXPECT_EQ(out.back(), '\n');
  }
}

// --- results against the underlying engines -------------------------------

TEST(ServeServiceTest, WhatifMatchesExtrapolatorDirectly) {
  auto service = make_service();
  const std::string out = respond(
      service,
      "{\"op\":\"whatif\",\"params\":{\"reader_factor\":2.0,"
      "\"machine_factor\":0.5}}");
  ASSERT_NE(out.find("\"ok\":true"), std::string::npos) << out;

  core::Extrapolator direct(core::paper::example_model(),
                            core::paper::trial_profile());
  core::Scenario scenario;
  scenario.profile = core::paper::field_profile();
  scenario.reader_failure_factor = 2.0;
  scenario.machine_failure_factor = 0.5;
  const core::ScenarioResult expected = direct.evaluate(scenario);

  EXPECT_NEAR(number_field(out, "system_failure"), expected.system_failure,
              1e-12);
  EXPECT_NEAR(number_field(out, "machine_failure"), expected.machine_failure,
              1e-12);
  EXPECT_NEAR(number_field(out, "failure_floor"), expected.failure_floor,
              1e-12);
}

TEST(ServeServiceTest, WhatifSecondCallIsCacheHit) {
  auto service = make_service();
  serve::RequestScratch scratch;
  const std::string line =
      "{\"op\":\"whatif\",\"params\":{\"reader_factor\":1.5}}";
  const std::string first = respond(service, line, scratch);
  const std::string second = respond(service, line, scratch);
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos) << first;
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos) << second;
  EXPECT_EQ(number_field(first, "system_failure"),
            number_field(second, "system_failure"));
}

TEST(ServeServiceTest, CompareRanksByFieldFailure) {
  auto service = make_service();
  const std::string out = respond(
      service,
      "{\"op\":\"compare\",\"params\":{\"scenarios\":["
      "{\"name\":\"worse\",\"machine_factor\":4.0},"
      "{\"name\":\"better\",\"machine_factor\":0.25}]}}");
  ASSERT_NE(out.find("\"ok\":true"), std::string::npos) << out;
  const std::size_t better = out.find("\"name\":\"better\"");
  const std::size_t worse = out.find("\"name\":\"worse\"");
  ASSERT_NE(better, std::string::npos);
  ASSERT_NE(worse, std::string::npos);
  EXPECT_LT(better, worse) << out;  // lower failure ranks first
}

TEST(ServeServiceTest, SweepDeadlineExpiresMidCompute) {
  auto service = make_service();
  const std::string out = respond(
      service,
      "{\"op\":\"sweep\",\"deadline_ms\":1,"
      "\"params\":{\"steps\":100000}}");
  EXPECT_TRUE(has_error_code(out, "deadline_exceeded")) << out;
}

TEST(ServeServiceTest, UqIsDeterministicForFixedSeed) {
  auto service = make_service();
  auto service2 = make_service();
  const std::string line =
      "{\"op\":\"uq\",\"params\":{\"draws\":200,\"seed\":7}}";
  const std::string a = respond(service, line);
  const std::string b = respond(service2, line);
  ASSERT_NE(a.find("\"ok\":true"), std::string::npos) << a;
  EXPECT_EQ(number_field(a, "mean"), number_field(b, "mean"));
  EXPECT_EQ(number_field(a, "lower"), number_field(b, "lower"));
  EXPECT_EQ(number_field(a, "upper"), number_field(b, "upper"));
}

// --- shared compute ---------------------------------------------------------

// Requests that fan out over the process pool: uq over 4 and 8 chunks of
// 512 draws, a sweep over two deadline chunks of up to 2048 steps (512
// per pool chunk) and a minimise over 8 chunks of 512 steps. Each is
// large enough that the default budget really splits it across threads.
const std::vector<std::string>& pooled_requests() {
  static const std::vector<std::string> lines = {
      "{\"op\":\"uq\",\"id\":1,\"params\":{\"draws\":2000,\"seed\":11}}",
      "{\"op\":\"uq\",\"id\":2,\"params\":{\"draws\":4096,"
      "\"seed\":12,\"profile\":\"trial\",\"credibility\":0.9}}",
      "{\"op\":\"sweep\",\"id\":3,\"params\":{\"steps\":4000,"
      "\"points\":33,\"lo\":-3.5,\"hi\":3}}",
      "{\"op\":\"minimise\",\"id\":4,\"params\":{\"steps\":4096,"
      "\"cost_fn\":300,\"cost_fp\":15}}",
  };
  return lines;
}

serve::ServiceOptions serial_compute() {
  serve::ServiceOptions options;
  options.compute_threads = 1;
  return options;
}

TEST(ServeSharedComputeTest, DefaultBudgetIsTheProcessBudget) {
  EXPECT_EQ(serve::ServiceOptions{}.compute_threads,
            exec::default_config().resolved_threads());
}

TEST(ServeSharedComputeTest, RepliesByteIdenticalAtOneThreadAndDefault) {
  auto serial = make_service(serial_compute());
  auto wide = make_service();
  // A wider budget than the pool has changes nothing either.
  serve::ServiceOptions eight;
  eight.compute_threads = 8;
  auto eight_wide = make_service(eight);
  for (const std::string& line : pooled_requests()) {
    const std::string want = respond(serial, line);
    ASSERT_NE(want.find("\"ok\":true"), std::string::npos) << want;
    EXPECT_EQ(respond(wide, line), want) << line;
    EXPECT_EQ(respond(eight_wide, line), want) << line;
  }
}

// --- admission control ----------------------------------------------------

TEST(ServeAdmissionTest, ShedsWithStructuredErrorWhenSaturated) {
  serve::ServiceOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;
  auto service = make_service(options);

  // Occupy the single slot directly, then submit a compute request.
  const auto outcome =
      service.gate().acquire(serve::Service::Clock::now() + 10s);
  ASSERT_EQ(outcome, serve::AdmissionGate::Outcome::kAdmitted);
  const std::string out = respond(service, "{\"op\":\"whatif\",\"id\":5}");
  service.gate().release();

  EXPECT_TRUE(has_error_code(out, "shed")) << out;
  EXPECT_NE(out.find("\"id\":5"), std::string::npos) << out;
}

TEST(ServeAdmissionTest, HealthBypassesTheGate) {
  serve::ServiceOptions options;
  options.max_concurrent = 1;
  options.max_queue = 0;
  auto service = make_service(options);
  ASSERT_EQ(service.gate().acquire(serve::Service::Clock::now() + 10s),
            serve::AdmissionGate::Outcome::kAdmitted);
  const std::string out = respond(service, "{\"op\":\"health\"}");
  service.gate().release();
  EXPECT_NE(out.find("\"ok\":true"), std::string::npos) << out;
}

TEST(ServeAdmissionTest, QueuedWaiterTimesOutAtDeadline) {
  serve::AdmissionGate gate({/*max_concurrent=*/1, /*max_queue=*/4});
  ASSERT_EQ(gate.acquire(serve::Service::Clock::now() + 10s),
            serve::AdmissionGate::Outcome::kAdmitted);
  EXPECT_EQ(gate.acquire(serve::Service::Clock::now() + 20ms),
            serve::AdmissionGate::Outcome::kDeadlineExceeded);
  gate.release();
}

TEST(ServeAdmissionTest, WaiterAdmittedWhenSlotFrees) {
  serve::AdmissionGate gate({/*max_concurrent=*/1, /*max_queue=*/4});
  ASSERT_EQ(gate.acquire(serve::Service::Clock::now() + 10s),
            serve::AdmissionGate::Outcome::kAdmitted);
  std::thread releaser([&] {
    std::this_thread::sleep_for(20ms);
    gate.release();
  });
  EXPECT_EQ(gate.acquire(serve::Service::Clock::now() + 10s),
            serve::AdmissionGate::Outcome::kAdmitted);
  releaser.join();
  gate.release();
}

// --- reload ---------------------------------------------------------------

TEST(ServeServiceTest, ReloadBumpsEpochAndInvalidatesCaches) {
  auto service = make_service();
  serve::RequestScratch scratch;
  const std::string line =
      "{\"op\":\"whatif\",\"params\":{\"reader_factor\":1.5}}";
  respond(service, line, scratch);
  ASSERT_NE(respond(service, line, scratch).find("\"cached\":true"),
            std::string::npos);
  EXPECT_EQ(number_field(respond(service, "{\"op\":\"health\"}"), "epoch"),
            1.0);

  service.reload(core::paper::example_model(), core::paper::trial_profile(),
                 core::paper::field_profile());
  EXPECT_EQ(number_field(respond(service, "{\"op\":\"health\"}"), "epoch"),
            2.0);
  // Same inputs, but the new snapshot starts with empty caches: miss again.
  EXPECT_NE(respond(service, line, scratch).find("\"cached\":false"),
            std::string::npos);
}

/// A `reload` request line carrying `model` with the paper's profiles.
std::string reload_line(const core::SequentialModel& model) {
  std::string line = "{\"op\":\"reload\",\"params\":{\"model\":\"";
  serve::append_json_escaped(line, core::to_text(model));
  line += "\",\"trial\":\"";
  serve::append_json_escaped(line,
                             core::to_text(core::paper::trial_profile()));
  line += "\",\"field\":\"";
  serve::append_json_escaped(line,
                             core::to_text(core::paper::field_profile()));
  line += "\"}}";
  return line;
}

/// The paper's model with every class's machine failure probability
/// halved, so every whatif and uq answer differs from the paper model's.
core::SequentialModel improved_machine_model() {
  const core::SequentialModel paper = core::paper::example_model();
  std::vector<core::ClassConditional> parameters;
  for (std::size_t x = 0; x < paper.class_count(); ++x) {
    core::ClassConditional p = paper.parameters(x);
    p.p_machine_fails *= 0.5;
    parameters.push_back(p);
  }
  return core::SequentialModel(paper.class_names(), parameters);
}

TEST(ServeServiceTest, ConcurrentReloadsReportDistinctEpochs) {
  auto service = make_service();
  const std::string line = reload_line(core::paper::example_model());
  constexpr int kPerThread = 8;
  std::vector<std::string> replies[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      serve::RequestScratch scratch;
      for (int i = 0; i < kPerThread; ++i) {
        replies[t].push_back(respond(service, line, scratch));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Each reload reports the epoch of the snapshot it published, so the
  // 2K replies name exactly the epochs 2 .. 1 + 2K.
  std::vector<double> epochs;
  for (const auto& list : replies) {
    for (const std::string& reply : list) {
      ASSERT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
      epochs.push_back(number_field(reply, "epoch"));
    }
  }
  std::sort(epochs.begin(), epochs.end());
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    EXPECT_EQ(epochs[i], static_cast<double>(i + 2));
  }
  EXPECT_EQ(epochs.back(), 1.0 + 2.0 * kPerThread);
}

TEST(ServeServiceTest, ReloadUnderLoadAnswersFromOneModel) {
  const std::vector<std::string> lines = {
      "{\"op\":\"whatif\",\"params\":{\"reader_factor\":1.5}}",
      "{\"op\":\"whatif\",\"params\":{\"machine_factor\":0.5,"
      "\"profile\":\"trial\"}}",
      "{\"op\":\"uq\",\"params\":{\"draws\":64,\"seed\":7}}",
  };
  const core::SequentialModel models[2] = {core::paper::example_model(),
                                           improved_machine_model()};
  const std::string reloads[2] = {reload_line(models[0]),
                                  reload_line(models[1])};
  // expected[m][l]: line l answered by a fresh service on model m.
  std::vector<std::string> expected[2];
  for (int m = 0; m < 2; ++m) {
    serve::Service reference(models[m], core::paper::trial_profile(),
                             core::paper::field_profile());
    for (const std::string& line : lines) {
      expected[m].push_back(respond(reference, line));
      ASSERT_NE(expected[m].back().find("\"cached\":false"),
                std::string::npos)
          << expected[m].back();
    }
  }
  for (std::size_t l = 0; l < lines.size(); ++l) {
    ASSERT_NE(expected[0][l], expected[1][l]) << lines[l];
  }
  // True when `reply` to line l is one model's answer, hit or miss.
  const auto from_a_model = [&](std::string reply, std::size_t l) {
    const std::string hit = "\"cached\":true";
    if (const std::size_t at = reply.find(hit); at != std::string::npos) {
      reply.replace(at, hit.size(), "\"cached\":false");
    }
    return reply == expected[0][l] || reply == expected[1][l];
  };

  auto service = make_service();
  constexpr int kConnections = 3;
  constexpr int kReloads = 30;
  static_assert(kReloads % 2 == 0, "the paper model must be live at the end");
  constexpr int kMinRequests = 100;
  std::atomic<bool> reloads_done{false};
  int answered[kConnections] = {};
  std::vector<std::string> wrong[kConnections];
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      serve::RequestScratch scratch;
      for (int i = 0; i < kMinRequests || !reloads_done.load(); ++i) {
        const std::size_t l = static_cast<std::size_t>(c + i) % lines.size();
        std::string reply = respond(service, lines[l], scratch);
        if (!from_a_model(reply, l)) wrong[c].push_back(std::move(reply));
        ++answered[c];
      }
    });
  }
  // Alternates the improved and the paper model; the paper model is live
  // after an even number of reloads.
  std::vector<std::string> reload_replies;
  std::thread reloader([&] {
    serve::RequestScratch scratch;
    for (int r = 0; r < kReloads; ++r) {
      reload_replies.push_back(respond(service, reloads[(r + 1) % 2], scratch));
      std::this_thread::sleep_for(200us);
    }
    reloads_done.store(true);
  });
  reloader.join();
  for (std::thread& thread : threads) thread.join();

  for (const std::string& reply : reload_replies) {
    EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
  }
  for (int c = 0; c < kConnections; ++c) {
    EXPECT_GE(answered[c], kMinRequests);
    EXPECT_TRUE(wrong[c].empty())
        << wrong[c].size() << " replies on connection " << c
        << " match neither model, e.g. " << wrong[c].front();
  }

  // A whatif that hits before the last reload misses after it, with the
  // final model's numbers.
  serve::RequestScratch scratch;
  respond(service, lines[0], scratch);
  ASSERT_NE(respond(service, lines[0], scratch).find("\"cached\":true"),
            std::string::npos);
  const int final_model = 1;  // switch from the paper model
  ASSERT_NE(respond(service, reloads[final_model], scratch)
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_EQ(respond(service, lines[0], scratch), expected[final_model][0]);
}

// --- read bursts ----------------------------------------------------------

/// `count` request lines shaped like the serve_trace mix: whatif over 8
/// hot keys, unique whatif and compare, sweep, minimise, uq and analyze,
/// with one malformed line and one unknown op among them.
std::vector<std::string> burst_mix(std::size_t count) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string id = "\"id\":" + std::to_string(i);
    const std::string unique = std::to_string(0.5 + 0.001 * static_cast<double>(i));
    std::string line;
    switch (i % 32) {
      case 24:
        line = "{\"op\":\"whatif\"," + id + ",\"params\":{\"reader_factor\":" +
               unique + ",\"profile\":\"trial\"}}";
        break;
      case 25:
        line = "{\"op\":\"compare\"," + id +
               ",\"params\":{\"scenarios\":[{\"name\":\"a\","
               "\"machine_factor\":" + unique +
               "},{\"name\":\"b\",\"reader_factor\":" + unique + "}]}}";
        break;
      case 26:
        line = "{\"op\":\"sweep\"," + id + ",\"params\":{\"lo\":" +
               std::to_string(-4.0 - 0.001 * static_cast<double>(i % 16)) + ",\"hi\":4}}";
        break;
      case 27:
        line = "{\"op\":\"minimise\"," + id + ",\"params\":{\"cost_fn\":" +
               std::to_string(400 + i) + ",\"cost_fp\":20}}";
        break;
      case 28:
        line = "{\"op\":\"uq\"," + id + ",\"params\":{\"seed\":" +
               std::to_string(i) + "}}";
        break;
      case 29:
        line = "{\"op\":\"analyze\"," + id + "}";
        break;
      default:
        line = "{\"op\":\"whatif\"," + id + ",\"params\":{\"reader_factor\":" +
               std::to_string(1.0 + 0.25 * static_cast<double>(i % 8)) + ",\"machine_factor\":" +
               std::to_string(0.5 + 0.125 * static_cast<double>(i % 4)) + "}}";
    }
    lines.push_back(std::move(line));
  }
  lines[count / 3] = "{\"op\":\"whatif\",\"id\":";  // malformed
  lines[count / 2] = "{\"op\":\"forecast\",\"id\":7}";
  return lines;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string burst;
  for (const std::string& line : lines) burst += line + "\n";
  return burst;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t from = 0, nl; (nl = text.find('\n', from)) !=
                                 std::string::npos;
       from = nl + 1) {
    lines.push_back(text.substr(from, nl - from));
  }
  return lines;
}

std::string without_cached_flag(std::string reply) {
  const std::string hit = "\"cached\":true";
  for (std::size_t at; (at = reply.find(hit)) != std::string::npos;) {
    reply.replace(at, hit.size(), "\"cached\":false");
  }
  return reply;
}

/// Four burst threads whatever the host: the pooled path runs even where
/// the default budget or the hardware concurrency is 1.
serve::ServiceOptions four_thread_bursts() {
  serve::ServiceOptions options;
  options.compute_threads = 4;
  options.max_concurrent = 4;
  return options;
}

serve::ServiceOptions uncached(serve::ServiceOptions options) {
  options.whatif_cache_capacity = 0;
  options.sweep_cache_capacity = 0;
  options.minimise_cache_capacity = 0;
  options.uq_cache_capacity = 0;
  return options;
}

TEST(ServeServiceTest, BurstMatchesSerialLineByLine) {
  const std::vector<std::string> lines = burst_mix(256);
  const std::string burst = joined(lines);
  for (const bool caches : {false, true}) {
    const serve::ServiceOptions options =
        caches ? four_thread_bursts() : uncached(four_thread_bursts());
    auto reference = make_service(options);
    serve::RequestScratch reference_scratch;
    std::string want;
    for (const std::string& line : lines) {
      reference.handle_line(line, reference_scratch, want);
    }

    auto service = make_service(options);
    serve::RequestScratch scratch;
    std::string got;
#if HMDIV_OBS
    const ObsGuard obs_on(true);
    const obs::Counter& jobs = obs::Registry::global().counter("exec.pool.jobs");
    const std::uint64_t jobs_before = jobs.value();
#endif
    ASSERT_EQ(service.handle_burst(burst, scratch, got), burst.size());
#if HMDIV_OBS
    // No barrier in the burst: one pool job, every compute inline in it.
    EXPECT_EQ(jobs.value() - jobs_before, 1u);
#endif
    const std::vector<std::string> got_lines = split_lines(got);
    const std::vector<std::string> want_lines = split_lines(want);
    ASSERT_EQ(got_lines.size(), lines.size());
    ASSERT_EQ(want_lines.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (caches) {
        EXPECT_EQ(without_cached_flag(got_lines[i]),
                  without_cached_flag(want_lines[i]))
            << "line " << i << ": " << lines[i];
      } else {
        EXPECT_EQ(got_lines[i], want_lines[i])
            << "line " << i << ": " << lines[i];
      }
    }
    EXPECT_TRUE(has_error_code(got_lines[lines.size() / 3], "bad_request"));
    EXPECT_TRUE(has_error_code(got_lines[lines.size() / 2], "unknown_op"));
  }
}

TEST(ServeServiceTest, BurstRunsBarriersInOrder) {
  // 64 lines on the paper model, a reload to a model with every PMf
  // halved, 64 more lines and a health check, all in one burst. The
  // reload's op is spelled with a JSON escape, so only an exact parse of
  // the line can tell that it is a barrier.
  const std::vector<std::string> head = burst_mix(64);
  const std::vector<std::string> tail = burst_mix(64);
  std::string reload = reload_line(improved_machine_model());
  const std::string op = "\"op\":\"reload\"";
  ASSERT_EQ(reload.find(op), 1u);
  reload.replace(1, op.size(), "\"op\":\"\\u0072eload\"");

  std::string burst = joined(head) + reload + "\n" + joined(tail) +
                      "{\"op\":\"health\",\"id\":\"last\"}\r\n";
  const serve::ServiceOptions options = uncached(four_thread_bursts());
  auto service = make_service(options);
  serve::RequestScratch scratch;
  std::string got;
  ASSERT_EQ(service.handle_burst(burst, scratch, got), burst.size());
  const std::vector<std::string> got_lines = split_lines(got);
  ASSERT_EQ(got_lines.size(), head.size() + tail.size() + 2);

  const core::SequentialModel models[2] = {core::paper::example_model(),
                                           improved_machine_model()};
  std::size_t at = 0;
  for (int m = 0; m < 2; ++m) {
    serve::Service reference(models[m], core::paper::trial_profile(),
                             core::paper::field_profile(), options);
    serve::RequestScratch reference_scratch;
    for (const std::string& line : m == 0 ? head : tail) {
      EXPECT_EQ(got_lines[at] + "\n", respond(reference, line,
                                              reference_scratch))
          << "model " << m << " line " << at << ": " << line;
      ++at;
    }
    if (m == 0) {
      EXPECT_NE(got_lines[at].find("\"ok\":true"), std::string::npos)
          << got_lines[at];
      EXPECT_EQ(number_field(got_lines[at], "epoch"), 2.0);
      ++at;
    }
  }
  EXPECT_NE(got_lines[at].find("\"id\":\"last\""), std::string::npos)
      << got_lines[at];
  EXPECT_EQ(number_field(got_lines[at], "epoch"), 2.0);
}

TEST(ServeServiceTest, HealthReportsEpochAndDraining) {
  auto service = make_service();
  std::string out = respond(service, "{\"op\":\"health\"}");
  EXPECT_NE(out.find("\"status\":\"ok\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"epoch\":1"), std::string::npos) << out;
  service.set_draining(true);
  out = respond(service, "{\"op\":\"health\"}");
  EXPECT_NE(out.find("\"status\":\"draining\""), std::string::npos) << out;
}

TEST(ServeServiceTest, MetricsExposePerEndpointCounters) {
  const ObsGuard obs_on(true);
  auto service = make_service();
  respond(service, "{\"op\":\"whatif\"}");
  respond(service, "{\"op\":\"whatif\"}");
  const std::string out = respond(service, "{\"op\":\"metrics\"}");
  EXPECT_NE(out.find("\"serve.whatif.requests\":2"), std::string::npos)
      << out;
  EXPECT_NE(out.find("serve.whatif.ns"), std::string::npos) << out;
}

TEST(ServeServiceTest, MetricsRenderTailQuantilesAndMax) {
  const ObsGuard obs_on(true);
  auto service = make_service();
  respond(service, "{\"op\":\"whatif\",\"params\":{\"reader_factor\":1.5}}");
  const std::string out = respond(service, "{\"op\":\"metrics\"}");
  // Every histogram entry carries the tail fields (p99.9 report-side via
  // snapshot_quantile, max straight from the snapshot).
  const std::size_t at = out.find("\"serve.whatif.ns\"");
  ASSERT_NE(at, std::string::npos) << out;
  const std::size_t entry_end = out.find('}', at);
  const std::string entry = out.substr(at, entry_end - at);
  EXPECT_NE(entry.find("\"p99\":"), std::string::npos) << entry;
  EXPECT_NE(entry.find("\"p999\":"), std::string::npos) << entry;
  EXPECT_NE(entry.find("\"max\":"), std::string::npos) << entry;
  // At least one recording happened, so neither tail field may be zero.
  EXPECT_GT(number_field(entry + "}", "p999"), 0.0) << entry;
  EXPECT_GT(number_field(entry + "}", "max"), 0.0) << entry;
}

// --- zero-allocation hit path ---------------------------------------------

TEST(ServeServiceTest, WhatifCacheHitAllocatesNothing) {
  // Metrics pointers are pre-registered, but obs stays off here so the
  // assertion pins the service path itself.
  const ObsGuard obs_off(false);
  auto service = make_service();
  serve::RequestScratch scratch;
  std::string out;
  out.reserve(4096);
  const std::string line =
      "{\"op\":\"whatif\",\"id\":12,\"params\":{\"reader_factor\":1.25,"
      "\"machine_factor\":0.75}}";

  // Warm up: fill the cache, size every scratch buffer and the thread
  // workspace arena.
  for (int i = 0; i < 3; ++i) {
    out.clear();
    service.handle_line(line, scratch, out);
    ASSERT_NE(out.find("\"ok\":true"), std::string::npos) << out;
  }
  ASSERT_NE(out.find("\"cached\":true"), std::string::npos) << out;

  const std::uint64_t before = test::allocation_count();
  for (int i = 0; i < 10; ++i) {
    out.clear();
    service.handle_line(line, scratch, out);
  }
  const std::uint64_t after = test::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "whatif cache hits must not allocate on the steady state";
  EXPECT_NE(out.find("\"cached\":true"), std::string::npos) << out;
}

// --- JSON parser ----------------------------------------------------------

TEST(ServeJsonTest, ParsesNestedDocument) {
  serve::JsonParser parser;
  auto& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  const auto result = parser.parse(
      "{\"a\":[1,2.5,-3e2],\"b\":{\"c\":\"x\\ny\"},\"t\":true,\"n\":null}",
      workspace);
  ASSERT_EQ(result.error, nullptr) << result.error;
  const serve::JsonValue* root = result.value;
  ASSERT_TRUE(root->is_object());
  const serve::JsonValue* a = root->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->item_count, 3u);
  EXPECT_EQ(a->items[0].number, 1.0);
  EXPECT_EQ(a->items[1].number, 2.5);
  EXPECT_EQ(a->items[2].number, -300.0);
  const serve::JsonValue* b = root->find("b");
  ASSERT_NE(b, nullptr);
  const serve::JsonValue* c = b->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->string(), "x\ny");
  EXPECT_TRUE(root->find("t")->boolean);
  EXPECT_TRUE(root->find("n")->is_null());
}

TEST(ServeJsonTest, RejectsMalformedInput) {
  serve::JsonParser parser;
  auto& workspace = exec::thread_workspace();
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1}x", "nul", "+1", "1.",
        "\"\\q\"", "\"\\ud800\"", "{\"a\" 1}", "[1 2]", "nan", "inf"}) {
    const exec::Workspace::Scope scope(workspace);
    const auto result = parser.parse(bad, workspace);
    EXPECT_NE(result.error, nullptr) << "accepted: " << bad;
  }
}

TEST(ServeJsonTest, RejectsOverDeepNesting) {
  serve::JsonParser parser;
  auto& workspace = exec::thread_workspace();
  const exec::Workspace::Scope scope(workspace);
  std::string deep(80, '[');
  deep += std::string(80, ']');
  const auto result = parser.parse(deep, workspace);
  EXPECT_NE(result.error, nullptr);
}

TEST(ServeJsonTest, NumberWriterEmitsNullForNonFinite) {
  std::string out;
  serve::append_json_number(out, std::nan(""));
  EXPECT_EQ(out, "null");
  out.clear();
  serve::append_json_number(out, 0.25);
  EXPECT_EQ(out, "0.25");
}

// --- TCP server -----------------------------------------------------------

int connect_to(std::uint16_t port) {
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
  return fd;
}

bool send_str(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t rc =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
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

/// Reads until `lines` newline-terminated lines arrived or EOF/error.
std::vector<std::string> read_lines(int fd, std::size_t lines) {
  std::string buffer;
  char chunk[4096];
  while (std::count(buffer.begin(), buffer.end(), '\n') <
         static_cast<std::ptrdiff_t>(lines)) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  std::vector<std::string> result;
  std::size_t from = 0;
  for (;;) {
    const std::size_t nl = buffer.find('\n', from);
    if (nl == std::string::npos) break;
    result.push_back(buffer.substr(from, nl - from));
    from = nl + 1;
  }
  return result;
}

std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

TEST(ServeServerTest, AnswersPipelinedRequestsInOrder) {
  auto service = make_service();
  serve::ServerOptions options;
  serve::Server server(service, options);
  server.start();

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  std::string batch;
  for (int i = 0; i < 10; ++i) {
    batch += "{\"op\":\"whatif\",\"id\":" + std::to_string(i) +
             ",\"params\":{\"reader_factor\":1.5}}\n";
  }
  ASSERT_TRUE(send_str(fd, batch));
  const std::vector<std::string> lines = read_lines(fd, 10);
  ASSERT_EQ(lines.size(), 10u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"id\":" + std::to_string(i)),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"ok\":true"), std::string::npos) << lines[i];
  }
  ::close(fd);
  server.shutdown();
}

TEST(ServeServerTest, PipelinedConnectionsGetOrderedByteIdenticalResponses) {
  // Several real connections pipelining at once: every reply must land on
  // its own connection, in request order, byte-identical to the in-process
  // handle_line reply for that line. Caches are off on both sides, because
  // with concurrent connections the shared caches' hit flags depend on
  // timing.
  serve::ServiceOptions options;
  options.whatif_cache_capacity = 0;
  options.sweep_cache_capacity = 0;
  options.minimise_cache_capacity = 0;
  options.uq_cache_capacity = 0;

  constexpr std::size_t kConnections = 3;
  constexpr std::size_t kPerConnection = 12;
  std::vector<std::vector<std::string>> conn_lines(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t k = 0; k < kPerConnection; ++k) {
      const std::string id = std::to_string(c * 100 + k);
      if (k % 3 == 2) {
        conn_lines[c].push_back("{\"op\":\"uq\",\"id\":" + id +
                                ",\"params\":{\"draws\":32,\"seed\":" + id +
                                "}}");
      } else {
        conn_lines[c].push_back(
            "{\"op\":\"whatif\",\"id\":" + id +
            ",\"params\":{\"reader_factor\":" +
            std::to_string(0.5 + 0.1 * static_cast<double>(k)) + "}}");
      }
    }
  }

  auto service = make_service(options);
  serve::Server server(service, {});
  server.start();
  std::vector<std::vector<std::string>> got(kConnections);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_to(server.port());
      ASSERT_GE(fd, 0);
      std::string batch;
      for (const auto& line : conn_lines[c]) batch += line + "\n";
      ASSERT_TRUE(send_str(fd, batch));
      got[c] = read_lines(fd, kPerConnection);
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown();

  auto reference = make_service(options);
  serve::RequestScratch scratch;
  for (std::size_t c = 0; c < kConnections; ++c) {
    ASSERT_EQ(got[c].size(), kPerConnection) << "connection " << c;
    for (std::size_t k = 0; k < kPerConnection; ++k) {
      std::string want;
      reference.handle_line(conn_lines[c][k], scratch, want);
      EXPECT_EQ(got[c][k] + "\n", want)
          << "connection " << c << " line " << k << ": " << conn_lines[c][k];
    }
  }
}

TEST(ServeServerTest, ConcurrentPooledComputeMatchesSerialService) {
  // Two connections pipeline uq requests at once through a daemon at the
  // default compute budget, so both connection threads submit pool jobs
  // at the same time. Every reply must equal, per connection and in
  // order, what a single-thread in-process Service returns. Caches are
  // off on both sides so every request really computes.
  serve::ServiceOptions options;
  options.whatif_cache_capacity = 0;
  options.sweep_cache_capacity = 0;
  options.minimise_cache_capacity = 0;
  options.uq_cache_capacity = 0;

  constexpr std::size_t kConnections = 2;
  constexpr std::size_t kPerConnection = 16;
  std::vector<std::vector<std::string>> conn_lines(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t k = 0; k < kPerConnection; ++k) {
      const std::string id = std::to_string(c * 100 + k);
      conn_lines[c].push_back("{\"op\":\"uq\",\"id\":" + id +
                              ",\"params\":{\"draws\":2000,\"seed\":" +
                              std::to_string(k % 5) + "}}");
    }
    conn_lines[c].push_back(pooled_requests()[2]);
    conn_lines[c].push_back(pooled_requests()[3]);
  }

  auto service = make_service(options);
  ASSERT_GT(service.options().compute_threads, 0u);
  serve::Server server(service, {});
  server.start();
  std::vector<std::vector<std::string>> got(kConnections);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_to(server.port());
      ASSERT_GE(fd, 0);
      std::string batch;
      for (const auto& line : conn_lines[c]) batch += line + "\n";
      ASSERT_TRUE(send_str(fd, batch));
      got[c] = read_lines(fd, conn_lines[c].size());
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown();

  serve::ServiceOptions reference_options = options;
  reference_options.compute_threads = 1;
  auto reference = make_service(reference_options);
  serve::RequestScratch scratch;
  for (std::size_t c = 0; c < kConnections; ++c) {
    ASSERT_EQ(got[c].size(), conn_lines[c].size()) << "connection " << c;
    for (std::size_t k = 0; k < conn_lines[c].size(); ++k) {
      std::string want;
      reference.handle_line(conn_lines[c][k], scratch, want);
      EXPECT_EQ(got[c][k] + "\n", want)
          << "connection " << c << " line " << k << ": " << conn_lines[c][k];
    }
  }
}

TEST(ServeServerTest, BurstFromOneConnectionIsNeverShed) {
  // With no admission queue, a burst spread over more threads than the
  // gate admits would shed its own lines. At one slot the burst runs
  // serially, at two it runs on two threads; neither sheds.
  for (const std::size_t slots : {1, 2}) {
    serve::ServiceOptions options = uncached(four_thread_bursts());
    options.max_concurrent = slots;
    options.max_queue = 0;
    auto service = make_service(options);
    serve::Server server(service, {});
    server.start();
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    std::vector<std::string> lines;
    for (int i = 0; i < 64; ++i) {
      lines.push_back(i % 4 == 3
                          ? "{\"op\":\"uq\",\"id\":" + std::to_string(i) +
                                ",\"params\":{\"draws\":256}}"
                          : "{\"op\":\"whatif\",\"id\":" +
                                std::to_string(i) + "}");
    }
    ASSERT_TRUE(send_str(fd, joined(lines)));
    const std::vector<std::string> replies = read_lines(fd, lines.size());
    ::close(fd);
    server.shutdown();
    ASSERT_EQ(replies.size(), lines.size()) << slots << " slots";
    for (std::size_t i = 0; i < replies.size(); ++i) {
      EXPECT_NE(replies[i].find("\"ok\":true"), std::string::npos)
          << slots << " slots: " << replies[i];
      EXPECT_NE(replies[i].find("\"id\":" + std::to_string(i) + ","),
                std::string::npos)
          << replies[i];
    }
  }
}

TEST(ServeServerTest, BlankAndCarriageReturnLinesAreIgnored) {
  auto service = make_service();
  serve::Server server(service, {});
  server.start();
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_str(fd, "\r\n\n{\"op\":\"health\",\"id\":1}\r\n"));
  const auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  ::close(fd);
  server.shutdown();
}

TEST(ServeServerTest, OversizedLineGetsStructuredErrorThenClose) {
  auto service = make_service();
  serve::ServerOptions options;
  options.max_line_bytes = 1024;
  serve::Server server(service, options);
  server.start();

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  const std::string huge(4096, 'x');  // no newline: one line, too long
  ASSERT_TRUE(send_str(fd, huge));
  const auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_error_code(lines[0] + "\n", "oversized")) << lines[0];
  // The server closes the connection after the error line.
  char byte;
  ssize_t got;
  do {
    got = ::read(fd, &byte, 1);
  } while (got < 0 && errno == EINTR);
  EXPECT_EQ(got, 0);
  ::close(fd);
  server.shutdown();
}

TEST(ServeServerTest, ShutdownDrainsBufferedRequests) {
  auto service = make_service();
  serve::Server server(service, {});
  server.start();

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  // One round-trip first so the connection is established server-side
  // (drain covers accepted connections, not the accept queue).
  ASSERT_TRUE(send_str(fd, "{\"op\":\"health\"}\n"));
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);

  constexpr int kRequests = 20;
  std::string batch;
  for (int i = 0; i < kRequests; ++i) {
    batch += "{\"op\":\"whatif\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(send_str(fd, batch));
  // Shutdown races the connection thread on purpose: every request sent
  // before the stop signal must still be answered, whichever side wins —
  // the drain grace window picks up bytes still in flight.
  server.shutdown();
  const auto lines = read_lines(fd, kRequests);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  ::close(fd);
}

TEST(ServeServerTest, BusyConnectionsAreRejectedWithStructuredError) {
  auto service = make_service();
  serve::ServerOptions options;
  options.max_connections = 1;
  serve::Server server(service, options);
  server.start();

  const int first = connect_to(server.port());
  ASSERT_GE(first, 0);
  ASSERT_TRUE(send_str(first, "{\"op\":\"health\"}\n"));
  ASSERT_EQ(read_lines(first, 1).size(), 1u);  // first conn is live

  const int second = connect_to(server.port());
  ASSERT_GE(second, 0);
  const auto lines = read_lines(second, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(has_error_code(lines[0] + "\n", "busy")) << lines[0];
  ::close(second);
  ::close(first);
  server.shutdown();
}

TEST(ServeServerTest, LifecycleLeaksNoFileDescriptors) {
  // Settle any lazy fd creation first (gtest, locale, /proc itself).
  {
    auto service = make_service();
    serve::Server server(service, {});
    server.start();
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    ::close(fd);
    server.shutdown();
  }
  const std::size_t before = open_fd_count();
  for (int round = 0; round < 3; ++round) {
    auto service = make_service();
    serve::Server server(service, {});
    server.start();
    const int fd = connect_to(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_str(fd, "{\"op\":\"whatif\"}\n"));
    ASSERT_EQ(read_lines(fd, 1).size(), 1u);
    ::close(fd);
    server.shutdown();
  }
  EXPECT_EQ(open_fd_count(), before);
}

TEST(ServeServerTest, RestartAfterShutdownWorks) {
  auto service = make_service();
  serve::Server server(service, {});
  server.start();
  server.shutdown();
  EXPECT_FALSE(server.running());
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_str(fd, "{\"op\":\"health\"}\n"));
  EXPECT_EQ(read_lines(fd, 1).size(), 1u);
  ::close(fd);
  server.shutdown();
}

TEST(ServeServerTest, SendTimeoutToStuckPeerClosesAndCounts) {
  // A peer that stops reading must not wedge its connection thread past
  // the send timeout: the blocked send returns EAGAIN, the server counts
  // serve.conn.send_timeout and closes. Small SO_SNDBUF (server) and
  // SO_RCVBUF (client) make the kernel buffers overflow with a modest
  // burst; pipelined metrics responses (~kilobytes each) fill them fast.
  ObsGuard obs_on(true);
  const auto counter_value = [] {
    for (const auto& c : obs::registry_snapshot().counters) {
      if (c.name == "serve.conn.send_timeout") return c.value;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = counter_value();

  auto service = make_service();
  serve::ServerOptions options;
  options.send_timeout_seconds = 1;
  options.send_buffer_bytes = 4096;
  serve::Server server(service, options);
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const int tiny = 1024;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);

  std::string burst;
  for (int i = 0; i < 200; ++i) {
    burst += "{\"op\":\"metrics\",\"id\":" + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(send_str(fd, burst));
  // ...and never read. The server's first blocked send times out after
  // ~1 s; poll the counter rather than sleeping a fixed worst case.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (counter_value() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GT(counter_value(), before);

  // The server abandoned the connection: draining it now ends in EOF (or
  // a reset) well before the peer could ever have received every reply.
  char sink[4096];
  ssize_t got;
  do {
    got = ::recv(fd, sink, sizeof sink, 0);
  } while (got > 0 || (got < 0 && errno == EINTR));
  EXPECT_LE(got, 0);
  ::close(fd);
  server.shutdown();
}

// --- the real binary under SIGTERM ----------------------------------------

TEST(ServeServerTest, SigtermDrainsSpawnedDaemon) {
  if (HMDIV_TSAN) {
    GTEST_SKIP() << "fork/exec is not TSan-instrumentable";
  }
  const char* binary = std::getenv("HMDIV_SERVE_BIN");
  if (binary == nullptr || *binary == '\0') {
    GTEST_SKIP() << "HMDIV_SERVE_BIN not set";
  }

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(binary, binary, "--example", "--port", "0",
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
    ASSERT_GT(got, 0) << "daemon exited before printing its banner";
    banner.append(chunk, static_cast<std::size_t>(got));
  }
  const std::size_t colon = banner.rfind(':', banner.find('\n'));
  ASSERT_NE(colon, std::string::npos) << banner;
  const int port = std::atoi(banner.c_str() + colon + 1);
  ASSERT_GT(port, 0) << banner;

  const int fd = connect_to(static_cast<std::uint16_t>(port));
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_str(fd, "{\"op\":\"whatif\",\"id\":1}\n"));
  const auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  ::close(fd);
  ::close(out_pipe[0]);
}

}  // namespace
}  // namespace hmdiv
