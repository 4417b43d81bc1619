// Counter tables: every stats struct declares its counters once.
//
// A stats struct is a plain struct of std::uint64_t fields, followed by one
// constexpr table of {export name, member pointer} rows and a static_assert
// tying the table's length to the struct's size, so a field without a row
// does not compile. Export (Counters()), roll-up (operator+=) and the
// snapshot of a live instance are loops over that table: a counter is
// named only in its field, its row and the lines that bump it.
//
// A live instance shared between threads is a plain struct too. Its fields
// are touched only through relaxed std::atomic_ref: Bump on the hot path,
// LoadCounters for readers (each field is read atomically; the set is not
// one instant).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>  // std::size, for the tables' static_asserts
#include <utility>
#include <vector>

namespace joza {

// Name/value export of a stats struct, in its table's order.
using CounterList = std::vector<std::pair<const char*, std::uint64_t>>;

template <typename Stats>
struct CounterField {
  const char* name;
  std::uint64_t Stats::*field;
  // A roll-up adds counters; an identity (a version) keeps the larger.
  bool keeps_max = false;
};

template <typename Stats, std::size_t N>
CounterList ExportCounters(const Stats& stats,
                           const CounterField<Stats> (&table)[N]) {
  CounterList out;
  out.reserve(N);
  for (const CounterField<Stats>& row : table) {
    out.emplace_back(row.name, stats.*row.field);
  }
  return out;
}

static_assert(std::atomic_ref<std::uint64_t>::required_alignment <=
                  alignof(std::uint64_t),
              "a stats field must be usable through atomic_ref as declared");

// One relaxed add to a field of a live instance; returns the value before.
inline std::uint64_t Bump(std::uint64_t& counter, std::uint64_t n = 1) {
  return std::atomic_ref<std::uint64_t>(counter).fetch_add(
      n, std::memory_order_relaxed);
}

// Relaxed snapshot of every row of a live instance. A load writes nothing;
// the cast only satisfies C++20's atomic_ref, which takes no const type.
template <typename Stats, std::size_t N>
Stats LoadCounters(const Stats& live, const CounterField<Stats> (&table)[N]) {
  Stats out;
  for (const CounterField<Stats>& row : table) {
    auto& field = const_cast<std::uint64_t&>(live.*row.field);
    out.*row.field =
        std::atomic_ref<std::uint64_t>(field).load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace joza
