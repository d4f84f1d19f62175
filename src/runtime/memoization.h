// Persistent memoization (§II.A: "The persistence of memory is shifting
// the temporal and energy scalability of techniques that trade space and
// compute, such as memoization").
//
// An NVM-backed memo table: results survive power cycles (persistence is a
// CIM premise, §II.B), lookups cost an in-memory associative search, and
// the cache decides economically — a result is memoized only when the
// expected lookup saving beats the write cost. LRU eviction bounds space.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"

namespace cim::runtime {

struct MemoParams {
  std::size_t capacity_entries = 1024;
  // NVM access energy; asymmetric: writes are expensive.
  double lookup_energy_pj = 20.0;
  double write_energy_pj = 400.0;
  // Only memoize results whose recompute cost exceeds this multiple of the
  // write cost (the space/compute trade §II.A describes).
  double write_worthiness = 2.0;

  [[nodiscard]] Status Validate() const {
    if (capacity_entries == 0) return InvalidArgument("capacity must be > 0");
    if (write_worthiness < 0.0) {
      return InvalidArgument("write_worthiness must be >= 0");
    }
    return Status::Ok();
  }
};

struct MemoStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t rejected_writes = 0;  // not worth persisting
  std::uint64_t evictions = 0;
  double energy_spent_pj = 0.0;
  double energy_saved_pj = 0.0;  // recompute energy avoided by hits

  [[nodiscard]] double hit_rate() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  [[nodiscard]] double net_energy_pj() const {
    return energy_saved_pj - energy_spent_pj;
  }
};

class MemoCache {
 public:
  [[nodiscard]] static Expected<MemoCache> Create(const MemoParams& params);

  // Look up `key`; on hit returns the stored value and books the recompute
  // saving. On miss returns NotFound.
  [[nodiscard]] Expected<std::vector<double>> Lookup(
      std::uint64_t key, double recompute_energy_pj);

  // Offer a computed result for memoization; stored only if worthwhile and
  // (after LRU eviction) capacity allows.
  Status Insert(std::uint64_t key, std::vector<double> value,
                double recompute_energy_pj);

  // Simulate a power cycle: a DRAM cache would empty; the NVM memo table
  // keeps every entry (returns how many survived).
  [[nodiscard]] std::size_t PowerCycle() const { return entries_.size(); }

  [[nodiscard]] const MemoStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  explicit MemoCache(const MemoParams& params) : params_(params) {}

  void Touch(std::uint64_t key);

  MemoParams params_;
  struct Entry {
    std::vector<double> value;
    double recompute_energy_pj;
    std::list<std::uint64_t>::iterator lru_pos;
  };
  std::map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> lru_;  // front = most recent
  MemoStats stats_;
};

}  // namespace cim::runtime
