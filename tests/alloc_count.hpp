// Shared access to the program-wide heap-allocation counter.
//
// The counting replacements of every global allocation function (plain,
// array, nothrow and aligned new; every matching delete) live in
// test_sweep_engine.cpp — replacement of the global allocation functions
// must happen exactly once per binary — but every TU linked into
// hmdiv_tests observes them. Any test that asserts a zero-allocation
// contract (sweep engine, batched uncertainty engine, bootstrap) reads the
// counter through this header instead of redefining its own.
#pragma once

#include <cstdint>

namespace hmdiv::test {

/// Number of global operator new calls (any form) since program start
/// (relaxed atomic read; exact in single-threaded sections, monotone
/// everywhere).
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace hmdiv::test
