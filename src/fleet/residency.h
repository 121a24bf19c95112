#pragma once
// Bounded-residency manager — the eviction tier over the mmap layer.
//
// A fleet's long tail of cold per-user artifacts must not all stay
// mapped: with millions of keys, "loaded forever on first get()" is an
// unbounded RSS leak. The ResidencyManager tracks every resident
// artifact's byte footprint against a configurable budget and evicts
// the coldest unleased entries when a new load pushes the total over —
// PR 5 made re-mapping an evicted artifact ~1.3 ms, so eviction trades
// a bounded reload latency for bounded memory.
//
// ## Leases: in-flight batches pin their version
//
// Eviction never invalidates a snapshot a caller holds: an entry whose
// detector is referenced outside the registry (shared_ptr use_count >
// 1 — an in-flight batch, a pinned hot-swap comparison) reports itself
// *pinned* and is skipped by the sweep (counted in pinned_skips). Only
// cold, unleased entries are unmapped. A snapshot taken before its
// entry was evicted therefore keeps serving the old bytes until the
// holder drops it — the same pin-your-version contract refresh()
// hot-swaps have always honoured.
//
// ## Division of labour
//
// The manager owns accounting (resident byte total, budget, stats) and
// victim selection (least-recently-used by the entries' own relaxed
// use stamps); the *entries* own the eviction mechanics through the
// Resident interface — checking their lease and dropping their
// detector under their own leaf lock. Lock order is always
// manager mutex -> entry leaf lock, never the reverse: entries call
// into the manager only from contexts that hold no entry lock.
//
// Tracking uses weak_ptrs, so an entry orphaned by a registry
// re-point (or a destroyed registry) ages out of the accounting
// automatically on the next sweep.
//
// All members are safe to call concurrently.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace hmd::fleet {

/// Point-in-time residency accounting (see ResidencyManager::stats).
struct ResidencyStats {
  std::size_t budget_bytes = 0;  ///< 0 = unbounded (no eviction)
  std::size_t resident_bytes = 0;
  std::size_t resident_entries = 0;
  std::uint64_t admits = 0;     ///< loads published into the tracker
  std::uint64_t evictions = 0;  ///< entries unmapped by the sweep
  std::uint64_t evicted_bytes = 0;
  /// Sweep passes that wanted an entry but found it lease-pinned.
  std::uint64_t pinned_skips = 0;
};

class ResidencyManager {
 public:
  /// One resident artifact the sweep may unmap. Implemented by the
  /// registry's per-key entry.
  class Resident {
   public:
    virtual ~Resident() = default;
    /// Monotonic last-use stamp (relaxed atomic read; bigger = hotter).
    virtual std::uint64_t residency_last_used() const = 0;
    /// Drop the resident detector if (and only if) it is unleased.
    /// Returns the bytes freed, or 0 when the entry was pinned by an
    /// outstanding snapshot (or already gone). Called with the
    /// manager's mutex held; must take only the entry's own leaf lock.
    virtual std::size_t residency_evict() = 0;
  };

  /// `budget_bytes` is fixed for the manager's lifetime (0 = unbounded,
  /// no eviction).
  explicit ResidencyManager(std::size_t budget_bytes)
      : budget_(budget_bytes) {}

  /// Record `entry` as resident holding `bytes` (re-admitting an
  /// already-tracked entry replaces its byte count — a hot-swap reload
  /// may change footprint), then sweep while over budget: evict the
  /// least-recently-used unleased entries until the total fits or only
  /// pinned entries remain. The caller must hold no entry lock.
  void admit(const std::shared_ptr<Resident>& entry, std::size_t bytes);

  /// Every live tracked entry (expired ones are pruned as a side
  /// effect). The registry's refresh() sweep iterates this — O(resident
  /// set), not O(registered keys).
  std::vector<std::shared_ptr<Resident>> residents();

  ResidencyStats stats() const;

 private:
  struct Tracked {
    std::weak_ptr<Resident> handle;
    std::size_t bytes = 0;
  };

  /// Prune expired handles; then, while over budget, evict coldest
  /// unleased entries. Caller holds mutex_.
  void sweep_locked();

  const std::size_t budget_;
  mutable std::mutex mutex_;
  std::size_t resident_bytes_ = 0;
  std::map<const Resident*, Tracked> tracked_;
  std::uint64_t admits_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t evicted_bytes_ = 0;
  std::uint64_t pinned_skips_ = 0;
};

}  // namespace hmd::fleet
