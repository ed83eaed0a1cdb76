// Scratch arenas for the analytical sweep engine: a monotonic bump
// allocator with stack-scoped rewind, one instance per thread (pool
// helpers and callers alike, via thread_workspace()).
//
// Why: the analytical hot paths (threshold sweeps, grid minimisation,
// posterior prediction, bootstrap resampling) need per-chunk scratch
// arrays whose sizes repeat from call to call. A Workspace hands out
// pointers by bumping a cursor through preallocated blocks; a Scope
// rewinds the cursor on destruction. After the first call at a given
// problem size (the "warm-up"), every later call reuses the same memory
// and performs zero heap allocations — asserted by an instrumented
// allocator test in tests/test_sweep_engine.cpp.
//
// Rules (see DESIGN.md §10):
//  - Allocation is LIFO by Scope: open a Scope, alloc, let the Scope
//    close. Nested Scopes (e.g. a bootstrap chunk running inside a sweep
//    chunk on the same thread via inline execution) compose naturally.
//  - alloc<T>() returns *uninitialised* storage for trivially copyable,
//    trivially destructible T — callers must write before reading.
//  - A Workspace is single-threaded. thread_workspace() gives each thread
//    its own; never share one across threads.
//  - Memory is never returned to the OS until the Workspace dies; the
//    high-water mark is the steady-state footprint.
//
// Growth is observable: every fresh block reservation counts its bytes
// into the `exec.arena.bytes` / `exec.arena.blocks` obs metrics, so a
// profile showing those counters still moving after warm-up is a leak of
// scope discipline somewhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace hmdiv::exec {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Cursor state; captured by Scope, restored on Scope exit.
  struct Mark {
    std::size_t block = 0;
    std::size_t used = 0;
  };

  /// RAII rewind point. All allocations made while a Scope is open are
  /// released (cursor-wise; memory is retained) when it closes.
  class Scope {
   public:
    explicit Scope(Workspace& workspace)
        : workspace_(&workspace), mark_(workspace.mark()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { workspace_->rewind(mark_); }

   private:
    Workspace* workspace_;
    Mark mark_;
  };

  /// Uninitialised scratch for `count` elements of trivial T, aligned to
  /// alignof(T) (at least). Valid until the enclosing Scope closes.
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Workspace hands out raw storage: T must be trivial");
    void* p = alloc_bytes(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

  /// Raw aligned storage; prefer alloc<T>().
  [[nodiscard]] void* alloc_bytes(std::size_t bytes, std::size_t alignment);

  [[nodiscard]] Mark mark() const noexcept {
    return Mark{active_, blocks_.empty() ? 0 : blocks_[active_].used};
  }
  void rewind(Mark mark) noexcept;

  /// Total bytes reserved from the heap over the Workspace's lifetime.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Bytes currently handed out (sum over blocks up to the cursor).
  [[nodiscard]] std::size_t bytes_in_use() const noexcept;

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  /// First block big enough for a fresh region; doubles the footprint so
  /// steady state settles on one block per thread.
  static constexpr std::size_t kMinBlockBytes = 1u << 16;

  Block& grow(std::size_t need);

  std::vector<Block> blocks_;
  std::size_t active_ = 0;
  std::size_t capacity_ = 0;
};

/// The calling thread's own Workspace (thread-local, created on first
/// use). Pool helpers and the submitting caller each get one, so chunked
/// parallel bodies can scratch freely without synchronisation.
[[nodiscard]] Workspace& thread_workspace();

}  // namespace hmdiv::exec
