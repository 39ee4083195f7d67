// Byte-accounting primitives shared by every subsystem.
//
// The memory observability layer (obs/memstats.hpp) keeps a registry of
// named per-subsystem accounts; this header holds what those accounts are
// fed with, deliberately placed in `common` so owners in topology/bgp/churn
// can report their footprint without an obs dependency:
//
//   - MemCounters: one account's current and peak bytes. Plain member
//     arithmetic, no locking — an account belongs to one thread, matching
//     ProfileRegistry.
//   - vector_bytes / hash_map_bytes: the capacity-walk helpers owners use
//     to compute their exact footprint.
//
// Accounts are fed one way, by walks: an owner computes its footprint from
// container capacities and set_current()s it at a sample point. A walk is
// deterministic across thread counts, which is what lets bytes rows into
// the bit-identical bench gate.
#pragma once

#include <cstdint>

namespace miro {

/// One byte account: the last walked footprint and its high-water mark.
struct MemCounters {
  std::uint64_t current = 0;
  std::uint64_t peak = 0;

  /// Replaces `current` with an exact measured footprint (peak keeps the
  /// high-water mark).
  void set_current(std::uint64_t bytes) {
    current = bytes;
    if (current > peak) peak = current;
  }
};

/// Exact byte footprint of a std::vector-shaped buffer: capacity, not size —
/// reserved-but-unused storage is still resident. The helper keeps every
/// walk-accounting site honest about the same convention.
template <typename Vector>
std::uint64_t vector_bytes(const Vector& v) {
  return static_cast<std::uint64_t>(v.capacity()) *
         sizeof(typename Vector::value_type);
}

/// Estimated byte footprint of a node-based hash map (std::unordered_map /
/// std::unordered_set): one bucket pointer per bucket plus, per element, the
/// value_type payload and the libstdc++ node overhead (next pointer + cached
/// hash). An estimate by construction — exact enough for bytes/route
/// regression tracking, and deterministic for a given insertion sequence.
template <typename Map>
std::uint64_t hash_map_bytes(const Map& m) {
  constexpr std::uint64_t kNodeOverhead = 2 * sizeof(void*);
  return static_cast<std::uint64_t>(m.bucket_count()) * sizeof(void*) +
         static_cast<std::uint64_t>(m.size()) *
             (sizeof(typename Map::value_type) + kNodeOverhead);
}

}  // namespace miro
