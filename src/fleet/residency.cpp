#include "fleet/residency.h"

#include <algorithm>

namespace hmd::fleet {

void ResidencyManager::admit(const std::shared_ptr<Resident>& entry,
                             std::size_t bytes) {
  if (entry == nullptr) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++admits_;
  Tracked& tracked = tracked_[entry.get()];
  // Re-admit (hot-swap reload, or a raw pointer reused after its old
  // entry expired): replace the stale byte count, don't double-count.
  if (!tracked.handle.expired()) resident_bytes_ -= tracked.bytes;
  tracked.handle = entry;
  tracked.bytes = bytes;
  resident_bytes_ += bytes;
  sweep_locked();
}

std::vector<std::shared_ptr<ResidencyManager::Resident>>
ResidencyManager::residents() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Resident>> out;
  out.reserve(tracked_.size());
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    if (auto live = it->second.handle.lock()) {
      out.push_back(std::move(live));
      ++it;
    } else {
      resident_bytes_ -= it->second.bytes;
      it = tracked_.erase(it);
    }
  }
  return out;
}

ResidencyStats ResidencyManager::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ResidencyStats out;
  out.budget_bytes = budget_;
  out.resident_bytes = resident_bytes_;
  out.resident_entries = tracked_.size();
  out.admits = admits_;
  out.evictions = evictions_;
  out.evicted_bytes = evicted_bytes_;
  out.pinned_skips = pinned_skips_;
  return out;
}

void ResidencyManager::sweep_locked() {
  // Prune entries whose registry entry was re-pointed away or destroyed.
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    if (it->second.handle.expired()) {
      resident_bytes_ -= it->second.bytes;
      it = tracked_.erase(it);
    } else {
      ++it;
    }
  }
  if (budget_ == 0 || resident_bytes_ <= budget_) return;
  // One pass, coldest-first: rank every live entry by its use stamp,
  // then walk the ranking attempting evictions until under budget. An
  // entry found pinned stays pinned for the rest of *this* sweep (its
  // lease cannot clear while we hold the manager mutex and the holder
  // keeps the snapshot), so it is simply never revisited — the sweep is
  // O(T log T) in the tracked set however many entries are pinned.
  struct Candidate {
    std::uint64_t stamp;
    const Resident* key;
    std::shared_ptr<Resident> live;
  };
  std::vector<Candidate> ranked;
  ranked.reserve(tracked_.size());
  for (const auto& [ptr, tracked] : tracked_) {
    if (auto live = tracked.handle.lock()) {
      ranked.push_back({live->residency_last_used(), ptr, std::move(live)});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.stamp < b.stamp;
            });
  for (Candidate& victim : ranked) {
    if (resident_bytes_ <= budget_) break;
    const std::size_t freed = victim.live->residency_evict();
    if (freed == 0) {
      ++pinned_skips_;
      continue;
    }
    const auto it = tracked_.find(victim.key);
    // Account with the tracked bytes (what admit() added), not the
    // entry's own idea of its size — the two are equal by construction,
    // but the tracker's ledger must stay self-consistent either way.
    resident_bytes_ -= it->second.bytes;
    evicted_bytes_ += it->second.bytes;
    ++evictions_;
    tracked_.erase(it);
  }
}

}  // namespace hmd::fleet
