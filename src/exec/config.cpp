#include "exec/config.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace hmdiv::exec {

namespace {

constexpr unsigned kUnresolved = ~0U;

/// 0 = auto, kUnresolved = not yet read from the environment.
std::atomic<unsigned> g_default_threads{kUnresolved};

/// Set once the malformed-HMDIV_THREADS warning has been printed, so a
/// misconfigured deployment logs exactly one line however often the
/// environment is re-read.
std::atomic<bool> g_env_warned{false};

void warn_bad_env_value(const char* raw) noexcept {
  if (g_env_warned.exchange(true, std::memory_order_relaxed)) return;
  std::fprintf(stderr,
               "hmdiv: ignoring malformed HMDIV_THREADS='%s' (expected an "
               "integer in [1, 4096]); using all hardware threads\n",
               raw);
}

unsigned hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace

namespace detail {

void reset_env_warning() noexcept {
  g_env_warned.store(false, std::memory_order_relaxed);
}

}  // namespace detail

unsigned Config::resolved_threads() const noexcept {
  return threads == 0 ? hardware_threads() : threads;
}

Config config_from_env() noexcept {
  const char* raw = std::getenv("HMDIV_THREADS");
  if (raw == nullptr || *raw == '\0') return Config{};
  char* end = nullptr;
  const unsigned long value = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || value == 0 || value > 4096) {
    // Falling back silently would hide a deployment misconfiguration
    // (e.g. HMDIV_THREADS=8x pinning a fleet to the auto default).
    warn_bad_env_value(raw);
    return Config{};
  }
  return Config{static_cast<unsigned>(value)};
}

Config default_config() noexcept {
  unsigned threads = g_default_threads.load(std::memory_order_relaxed);
  if (threads == kUnresolved) {
    threads = config_from_env().threads;
    unsigned expected = kUnresolved;
    // First resolver wins; a concurrent set_default_config is respected.
    if (!g_default_threads.compare_exchange_strong(
            expected, threads, std::memory_order_relaxed)) {
      threads = expected;
    }
  }
  return Config{threads};
}

void set_default_config(Config config) noexcept {
  g_default_threads.store(config.threads, std::memory_order_relaxed);
}

}  // namespace hmdiv::exec
