// Seeded mutation fuzzing of every decoder of untrusted bytes.
//
// Targets: the four blob handlers ("sim.trial", "core.sweep",
// "core.minimise", "core.uq.sample"), the trial, sweep, minimise and UQ
// merges, the obs snapshot parser behind every obs frame, the frame
// parser itself fed mutated streams, and the network-facing text of
// hmdiv_serve: request lines through serve::JsonParser and through
// Service::handle_line, and the core::model_io model and profile loaders
// that the `reload` endpoint feeds. Each target starts from valid inputs
// built by the production encoders and handlers, then decodes kIterations
// mutants of them: bit flips, truncations, lying 8-byte length or count
// fields, and splices of byte ranges between seeds. The property: every
// mutant yields a value or throws the decoder's rejection —
// exec::wire::ProtocolError or std::invalid_argument for the fan-out
// decoders, std::runtime_error for obs::parse_snapshot — never another
// exception (bad_alloc, length_error), and under the sanitizer build
// never an out-of-bounds access or undefined behaviour. The JSON parser
// and handle_line never throw: their rejection is a structured error
// (JsonParser::Result::error, an "ok":false reply line).
//
// The trailing work-size words of the trial, minimise and UQ blobs (and
// the trial and UQ seeds) are not overwritten in place: any value there
// is a valid request whose cost is its size, which is not a decoder
// property. Truncations and splices still move them, and the handlers
// refuse any slice whose reply cannot fit one frame before computing it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "core/model_io.hpp"
#include "core/paper_example.hpp"
#include "core/tradeoff.hpp"
#include "core/tradeoff_shard.hpp"
#include "core/uncertainty.hpp"
#include "core/uncertainty_shard.hpp"
#include "exec/shard.hpp"
#include "exec/shard_protocol.hpp"
#include "exec/workspace.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "sim/tabular_world.hpp"
#include "sim/trial_shard.hpp"
#include "stats/rng.hpp"

namespace hmdiv {
namespace {

namespace wire = exec::wire;
using Bytes = std::vector<std::uint8_t>;

constexpr int kIterations = 2000;

/// Values a lying length or count field takes: empty, one, off by one
/// from the truth, large, and the ones whose byte size wraps.
constexpr std::uint64_t kLies[] = {
    0,
    1,
    std::uint64_t{1} << 24,
    std::uint64_t{1} << 32,
    std::uint64_t{1} << 40,
    std::uint64_t{1} << 61,
    std::uint64_t{1} << 63,
    ~std::uint64_t{0},
};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// One mutant of `seed`: one to three stacked mutations. Bytes in the
  /// last `frozen_tail` are not overwritten in place.
  Bytes mutate(const Bytes& seed, const std::vector<Bytes>& corpus,
               std::size_t frozen_tail) {
    Bytes out = seed;
    const std::size_t rounds = 1 + below(3);
    for (std::size_t i = 0; i < rounds; ++i) {
      const std::size_t open =
          out.size() > frozen_tail ? out.size() - frozen_tail : 0;
      switch (below(4)) {
        case 0:  // bit flips
          if (open == 0) break;
          for (std::size_t f = 1 + below(4); f > 0; --f) {
            out[below(open)] ^= static_cast<std::uint8_t>(1u << below(8));
          }
          break;
        case 1:  // truncation
          out.resize(below(out.size() + 1));
          break;
        case 2: {  // a lying 8-byte length or count field
          if (open < 8) break;
          const std::size_t at = below(open - 7);
          std::uint64_t lie = kLies[below(std::size(kLies))];
          if (below(4) == 0) {
            // Off by one from whatever is there.
            std::uint64_t truth = 0;
            for (int b = 0; b < 8; ++b) {
              truth |= std::uint64_t{out[at + b]} << (8 * b);
            }
            lie = below(2) == 0 ? truth + 1 : truth - 1;
          }
          for (int b = 0; b < 8; ++b) {
            out[at + b] = static_cast<std::uint8_t>(lie >> (8 * b));
          }
          break;
        }
        default: {  // splice a range of another seed over a range of this
          const Bytes& donor = corpus[below(corpus.size())];
          const std::size_t from = below(donor.size() + 1);
          const std::size_t take = below(donor.size() - from + 1);
          const std::size_t at = below(open + 1);
          const std::size_t drop = below(open - at + 1);
          const auto offset = [](const Bytes& bytes, std::size_t pos) {
            return bytes.cbegin() + static_cast<std::ptrdiff_t>(pos);
          };
          Bytes spliced(out.cbegin(), offset(out, at));
          spliced.insert(spliced.end(), offset(donor, from),
                         offset(donor, from + take));
          spliced.insert(spliced.end(), offset(out, at + drop), out.cend());
          out = std::move(spliced);
          break;
        }
      }
    }
    return out;
  }

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.next_u64() % n);
  }

 private:
  stats::Rng rng_;
};

struct Outcome {
  int values = 0;
  int rejections = 0;
};

/// The fan-out decoders reject malformed bytes with ProtocolError, and
/// the workload constructors they feed with std::invalid_argument.
bool wire_rejection(const std::exception& e) {
  return dynamic_cast<const wire::ProtocolError*>(&e) != nullptr ||
         dynamic_cast<const std::invalid_argument*>(&e) != nullptr;
}

/// obs::parse_snapshot rejects malformed bytes with std::runtime_error.
bool obs_rejection(const std::exception& e) {
  return dynamic_cast<const std::runtime_error*>(&e) != nullptr;
}

/// Builds and decodes kIterations mutants through `one_mutant`, checking
/// the property on each: a value, or an exception `rejection` accepts.
Outcome fuzz(std::string_view target, std::uint64_t seed,
             const std::function<void(Mutator&)>& one_mutant,
             bool (*rejection)(const std::exception&) = wire_rejection) {
  Mutator mutator(seed);
  Outcome outcome;
  for (int i = 0; i < kIterations; ++i) {
    try {
      one_mutant(mutator);
      ++outcome.values;
    } catch (const std::exception& e) {
      if (rejection(e)) {
        ++outcome.rejections;
      } else {
        ADD_FAILURE() << target << " mutant " << i << " threw "
                      << typeid(e).name() << ": " << e.what();
      }
    }
  }
  return outcome;
}

wire::ShardTask task_for(std::string_view workload, Bytes blob,
                         std::uint32_t shard = 0, std::uint32_t shards = 1) {
  wire::ShardTask task;
  task.workload = std::string(workload);
  task.shard_index = shard;
  task.shard_count = shards;
  task.blob = std::move(blob);
  return task;
}

exec::ShardHandler handler(std::string_view workload) {
  const exec::ShardHandler found = exec::find_shard_workload(workload);
  if (found == nullptr) throw std::logic_error("workload not registered");
  return found;
}

/// Payloads of every shard of a valid `shards`-way run of `blob`.
std::vector<Bytes> shard_payloads(std::string_view workload, const Bytes& blob,
                                  std::uint32_t shards) {
  std::vector<Bytes> payloads;
  for (std::uint32_t s = 0; s < shards; ++s) {
    payloads.push_back(handler(workload)(task_for(workload, blob, s, shards)));
  }
  return payloads;
}

/// The payload set with one member replaced by a mutant of it.
std::vector<Bytes> with_one_mutant(Mutator& mutator,
                                   const std::vector<Bytes>& payloads) {
  std::vector<Bytes> mutated = payloads;
  Bytes& victim = mutated[mutator.below(mutated.size())];
  victim = mutator.mutate(victim, payloads, 0);
  return mutated;
}

void expect_both_outcomes(std::string_view target, const Outcome& outcome) {
  // A fuzzer that only ever rejects, or never does, mutates nothing useful.
  EXPECT_GT(outcome.values, 0) << target;
  EXPECT_GT(outcome.rejections, 0) << target;
}

// --- fixtures -------------------------------------------------------------

/// Work-size and seed words at the end of the trial and UQ blobs.
constexpr std::size_t kFrozenTail = 16;
/// The step count at the end of the minimise blob.
constexpr std::size_t kStepsTail = 8;

sim::TabularWorld fuzz_world() {
  return sim::TabularWorld(core::paper::example_model(),
                           core::paper::trial_profile());
}

constexpr std::uint64_t kTrialCases = 300;
constexpr std::uint64_t kUqDraws = 600;  // two 512-draw chunks

core::PosteriorModelSampler fuzz_sampler() {
  core::ClassCounts easy;
  easy.cases = 80;
  easy.machine_failures = 6;
  easy.human_failures_given_machine_failed = 3;
  easy.human_failures_given_machine_succeeded = 4;
  core::ClassCounts difficult;
  difficult.cases = 20;
  difficult.machine_failures = 8;
  difficult.human_failures_given_machine_failed = 7;
  difficult.human_failures_given_machine_succeeded = 3;
  return core::PosteriorModelSampler({"easy", "difficult"},
                                     {easy, difficult});
}

core::DemandProfile fuzz_profile() {
  return core::DemandProfile({"easy", "difficult"}, {0.8, 0.2});
}

core::TradeoffAnalyzer fuzz_analyzer() {
  core::BinormalMachine machine;
  machine.cancer_class_means = {2.0, 0.8};
  machine.normal_class_means = {-2.0, -0.5};
  return core::TradeoffAnalyzer(
      std::move(machine),
      core::DemandProfile({"easy", "difficult"}, {0.9, 0.1}),
      {{0.14, 0.18}, {0.4, 0.9}},
      core::DemandProfile({"typical", "complex"}, {0.85, 0.15}),
      {{0.10, 0.02}, {0.35, 0.12}}, 0.01);
}

std::vector<double> fuzz_thresholds() {
  std::vector<double> thresholds(64);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    thresholds[i] = -4.0 + 8.0 * static_cast<double>(i) / 63.0;
  }
  return thresholds;
}

// --- blob handlers ------------------------------------------------------

TEST(WireFuzz, TrialHandlerYieldsValueOrProtocolError) {
  const sim::TabularWorld world = fuzz_world();
  const std::vector<Bytes> seeds{
      sim::encode_trial_blob(world, kTrialCases, 11),
      sim::encode_trial_blob(world, 1, 12)};
  const auto run = handler(sim::kTrialShardWorkload);
  expect_both_outcomes(
      "sim.trial", fuzz("sim.trial", 0x7121A1, [&](Mutator& m) {
        const Bytes& seed = seeds[m.below(seeds.size())];
        static_cast<void>(run(task_for(sim::kTrialShardWorkload,
                                       m.mutate(seed, seeds, kFrozenTail))));
      }));
}

TEST(WireFuzz, SweepHandlerYieldsValueOrProtocolError) {
  const core::TradeoffAnalyzer analyzer = fuzz_analyzer();
  const std::vector<double> thresholds = fuzz_thresholds();
  const std::vector<Bytes> seeds{
      core::encode_sweep_blob(analyzer, thresholds),
      core::encode_sweep_blob(analyzer,
                              std::span(thresholds).first(3))};
  const auto run = handler(core::kSweepShardWorkload);
  expect_both_outcomes(
      "core.sweep", fuzz("core.sweep", 0x5EE9, [&](Mutator& m) {
        const Bytes& seed = seeds[m.below(seeds.size())];
        static_cast<void>(run(task_for(core::kSweepShardWorkload,
                                       m.mutate(seed, seeds, 0), 1, 3)));
      }));
}

TEST(WireFuzz, MinimiseHandlerYieldsValueOrProtocolError) {
  const core::TradeoffAnalyzer analyzer = fuzz_analyzer();
  const std::vector<Bytes> seeds{
      core::encode_minimise_blob(analyzer, 500.0, 20.0, -4.0, 4.0, 999),
      core::encode_minimise_blob(analyzer, 0.0, 0.0, -1.0, 1.0, 2)};
  const auto run = handler(core::kMinimiseShardWorkload);
  expect_both_outcomes(
      "core.minimise", fuzz("core.minimise", 0x3141, [&](Mutator& m) {
        const Bytes& seed = seeds[m.below(seeds.size())];
        static_cast<void>(run(task_for(core::kMinimiseShardWorkload,
                                       m.mutate(seed, seeds, kStepsTail), 1,
                                       3)));
      }));
}

TEST(WireFuzz, UqHandlerYieldsValueOrProtocolError) {
  const std::vector<Bytes> seeds{
      core::encode_uq_blob(fuzz_sampler(), fuzz_profile(), kUqDraws, 21),
      core::encode_uq_blob(fuzz_sampler(), fuzz_profile(), 1, 22)};
  const auto run = handler(core::kUncertaintyShardWorkload);
  expect_both_outcomes(
      "core.uq.sample", fuzz("core.uq.sample", 0x0C0A, [&](Mutator& m) {
        const Bytes& seed = seeds[m.below(seeds.size())];
        static_cast<void>(run(task_for(core::kUncertaintyShardWorkload,
                                       m.mutate(seed, seeds, kFrozenTail))));
      }));
}

// --- merges ---------------------------------------------------------------

TEST(WireFuzz, TrialMergeYieldsValueOrProtocolError) {
  const sim::TabularWorld world = fuzz_world();
  const std::vector<Bytes> payloads =
      shard_payloads(sim::kTrialShardWorkload,
                     sim::encode_trial_blob(world, kTrialCases, 31), 3);
  expect_both_outcomes(
      "sim.trial merge", fuzz("sim.trial merge", 0x3E76E, [&](Mutator& m) {
        static_cast<void>(sim::merge_trial_payloads(
            world, kTrialCases, with_one_mutant(m, payloads)));
      }));
}

TEST(WireFuzz, SweepMergeYieldsValueOrProtocolError) {
  const core::TradeoffAnalyzer analyzer = fuzz_analyzer();
  const std::vector<double> thresholds = fuzz_thresholds();
  const std::vector<Bytes> payloads =
      shard_payloads(core::kSweepShardWorkload,
                     core::encode_sweep_blob(analyzer, thresholds), 3);
  expect_both_outcomes(
      "core.sweep merge", fuzz("core.sweep merge", 0x5EE93, [&](Mutator& m) {
        static_cast<void>(core::merge_sweep_payloads(
            analyzer, thresholds, with_one_mutant(m, payloads)));
      }));
}

TEST(WireFuzz, MinimiseMergeYieldsValueOrProtocolError) {
  const core::TradeoffAnalyzer analyzer = fuzz_analyzer();
  const std::vector<Bytes> payloads = shard_payloads(
      core::kMinimiseShardWorkload,
      core::encode_minimise_blob(analyzer, 500.0, 20.0, -4.0, 4.0, 999), 3);
  expect_both_outcomes(
      "core.minimise merge",
      fuzz("core.minimise merge", 0x31413, [&](Mutator& m) {
        static_cast<void>(core::merge_minimise_payloads(
            analyzer, with_one_mutant(m, payloads)));
      }));
}

TEST(WireFuzz, UqMergeYieldsValueOrProtocolError) {
  const std::vector<Bytes> payloads = shard_payloads(
      core::kUncertaintyShardWorkload,
      core::encode_uq_blob(fuzz_sampler(), fuzz_profile(), kUqDraws, 41), 2);
  std::vector<double> out(kUqDraws);
  expect_both_outcomes(
      "core.uq.sample merge",
      fuzz("core.uq.sample merge", 0x0C0A3, [&](Mutator& m) {
        core::merge_uq_payloads(with_one_mutant(m, payloads), out);
      }));
}

// --- obs frames and the frame stream -----------------------------------

TEST(WireFuzz, ObsSnapshotParseYieldsValueOrRuntimeError) {
  obs::Registry source;
  source.counter("exec.cluster.tasks").add(12);
  source.counter("core.tradeoff.grid_points").add(999);
  obs::Histogram& timer = source.histogram("core.tradeoff.minimise_ns");
  for (const std::uint64_t ns : {0u, 700u, 41'000u}) timer.record(ns);
  const std::vector<Bytes> seeds{obs::serialize_snapshot(source.snapshot()),
                                 obs::serialize_snapshot(obs::Snapshot{})};
  expect_both_outcomes(
      "obs snapshot",
      fuzz(
          "obs snapshot", 0x0B5,
          [&](Mutator& m) {
            const Bytes& seed = seeds[m.below(seeds.size())];
            // A coordinator folds every parsed delta into its registry.
            obs::Registry sink;
            sink.merge(obs::parse_snapshot(m.mutate(seed, seeds, 0)));
          },
          obs_rejection));
}

TEST(WireFuzz, FrameParserYieldsFramesOrProtocolError) {
  // Magic u32, type u32, payload length u64.
  constexpr std::size_t kFrameHeader = 16;
  const sim::TabularWorld world = fuzz_world();
  Bytes stream;
  wire::append_frame(stream, wire::FrameType::task,
                     wire::serialize_task(task_for(
                         sim::kTrialShardWorkload,
                         sim::encode_trial_blob(world, 40, 7), 0, 2)));
  wire::append_frame(stream, wire::FrameType::result, Bytes{1, 2, 3, 4, 5});
  wire::append_frame(stream, wire::FrameType::obs,
                     obs::serialize_snapshot(obs::Snapshot{}));
  wire::append_frame(stream, wire::FrameType::done, wire::serialize_done(0));
  Bytes failure;
  wire::append_frame(failure, wire::FrameType::error,
                     Bytes{'b', 'o', 'o', 'm'});
  const std::vector<Bytes> seeds{stream, failure};
  expect_both_outcomes(
      "frame stream", fuzz("frame stream", 0xF4A3E, [&](Mutator& m) {
        const Bytes mutant =
            m.mutate(seeds[m.below(seeds.size())], seeds, 0);
        wire::FrameParser parser;
        std::size_t consumed = 0;
        for (std::size_t at = 0; at < mutant.size();) {
          const std::size_t chunk =
              std::min(mutant.size() - at, 1 + m.below(64));
          parser.feed(std::span(mutant).subspan(at, chunk));
          at += chunk;
          while (const std::optional<wire::Frame> frame = parser.next()) {
            ASSERT_LE(frame->payload.size(), wire::kMaxFramePayload);
            consumed += kFrameHeader + frame->payload.size();
          }
        }
        // Every byte fed is in a yielded frame or still buffered.
        ASSERT_EQ(consumed + parser.buffered(), mutant.size());
      }));
}

// --- hmdiv_serve request lines and reload texts --------------------------

Bytes to_bytes(std::string_view text) { return Bytes(text.begin(), text.end()); }

std::string to_text(const Bytes& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

std::vector<Bytes> request_corpus() {
  std::vector<Bytes> corpus;
  for (const char* line : {
           R"({"op":"whatif","id":7,"deadline_ms":250,"params":{"reader_factor":1.5,"machine_factor":0.5}})",
           R"({"op":"whatif","id":"aé
","params":{"per_class":[{"class":"difficult","machine":0.25,"reader":2}],"profile":"trial"}})",
           R"({"op":"compare","id":3,"params":{"scenarios":[{"reader_factor":2},{"machine_factor":0.1,"profile":"field"}]}})",
           R"({"op":"analyze","id":null,"params":{}})",
           R"({"op":"health","id":[true,false,null,-1.5e-3]})",
           R"(  {"op":"metrics"}  )",
       }) {
    corpus.push_back(to_bytes(line));
  }
  return corpus;
}

/// Touches every byte a parsed JSON tree points at, so a view past the
/// input or the arena is an out-of-bounds read under ASan.
std::size_t walk(const serve::JsonValue& value, std::size_t depth = 0) {
  std::size_t sum = depth;
  for (const char c : value.string()) sum += static_cast<unsigned char>(c);
  for (std::size_t i = 0; i < value.item_count; ++i) {
    sum += walk(value.items[i], depth + 1);
  }
  for (std::size_t i = 0; i < value.member_count; ++i) {
    for (const char c : value.members[i].name()) {
      sum += static_cast<unsigned char>(c);
    }
    sum += walk(value.members[i].value, depth + 1);
  }
  return sum;
}

/// Raised by the tests below to count a structured error as a rejection.
struct StructuredError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

bool structured_rejection(const std::exception& e) {
  return dynamic_cast<const StructuredError*>(&e) != nullptr;
}

TEST(WireFuzz, JsonRequestLineYieldsValueOrStructuredError) {
  const std::vector<Bytes> seeds = request_corpus();
  serve::JsonParser parser;
  exec::Workspace workspace;
  expect_both_outcomes(
      "json request line",
      fuzz(
          "json request line", 0x150A,
          [&](Mutator& m) {
            const std::string line =
                to_text(m.mutate(seeds[m.below(seeds.size())], seeds, 0));
            const exec::Workspace::Scope scope(workspace);
            const serve::JsonParser::Result result =
                parser.parse(line, workspace);
            if (result.error != nullptr) {
              ASSERT_EQ(result.value, nullptr);
              ASSERT_LE(result.error_at, line.size());
              throw StructuredError(result.error);
            }
            ASSERT_NE(result.value, nullptr);
            (void)walk(*result.value);
          },
          structured_rejection));
}

TEST(WireFuzz, ServiceRequestLineYieldsReplyOrStructuredError) {
  // The whole request path behind the socket, on endpoints whose cost
  // does not scale with a request field (a mutated "draws" or "steps"
  // is a valid, expensive request, not a decoder property).
  const std::vector<Bytes> seeds = request_corpus();
  serve::ServiceOptions options;
  options.compute_threads = 1;
  serve::Service service(core::paper::example_model(),
                         core::paper::trial_profile(),
                         core::paper::field_profile(), options);
  serve::RequestScratch scratch;
  std::string out;
  expect_both_outcomes(
      "service request line",
      fuzz(
          "service request line", 0x5E7E,
          [&](Mutator& m) {
            const std::string line =
                to_text(m.mutate(seeds[m.below(seeds.size())], seeds, 0));
            out.clear();
            service.handle_line(line, scratch, out);
            // Exactly one newline-terminated reply line.
            ASSERT_FALSE(out.empty());
            ASSERT_EQ(out.find('\n'), out.size() - 1) << out;
            ASSERT_FALSE(scratch.shard_upgrade) << line;
            if (out.find("\"ok\":false") != std::string::npos) {
              ASSERT_NE(out.find("\"code\":\""), std::string::npos) << out;
              throw StructuredError(out);
            }
            ASSERT_NE(out.find("\"ok\":true"), std::string::npos) << out;
          },
          structured_rejection));
}

/// core::model_io loaders reject malformed text with std::invalid_argument.
bool text_rejection(const std::exception& e) {
  return dynamic_cast<const std::invalid_argument*>(&e) != nullptr;
}

std::vector<Bytes> model_io_corpus() {
  return {to_bytes(core::to_text(core::paper::example_model())),
          to_bytes("hmdiv-sequential-model v1\n# PMf PHf|Mf PHf|Ms\n"
                   "class easy 0.07 0.5 0.05\n"
                   "class difficult 0.41 0.9 0.15\n"),
          to_bytes(core::to_text(core::paper::trial_profile())),
          to_bytes(core::to_text(core::paper::field_profile())),
          to_bytes("# comment\n\nhmdiv-demand-profile v1\n"
                   "class a 0.25\nclass b 0.75\n")};
}

TEST(WireFuzz, ModelTextLoaderYieldsModelOrInvalidArgument) {
  const std::vector<Bytes> seeds = model_io_corpus();
  expect_both_outcomes(
      "model text",
      fuzz(
          "model text", 0x30DE1,
          [&](Mutator& m) {
            const core::SequentialModel model = core::parse_sequential_model(
                to_text(m.mutate(seeds[m.below(2)], seeds, 0)));
            ASSERT_GT(model.class_count(), 0u);
          },
          text_rejection));
}

TEST(WireFuzz, ProfileTextLoaderYieldsProfileOrInvalidArgument) {
  const std::vector<Bytes> seeds = model_io_corpus();
  expect_both_outcomes(
      "profile text",
      fuzz(
          "profile text", 0x9F0F1,
          [&](Mutator& m) {
            const core::DemandProfile profile = core::parse_demand_profile(
                to_text(m.mutate(seeds[2 + m.below(3)], seeds, 0)));
            ASSERT_GT(profile.class_count(), 0u);
          },
          text_rejection));
}

}  // namespace
}  // namespace hmdiv
