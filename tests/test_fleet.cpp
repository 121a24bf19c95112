// Fleet subsystem (src/fleet/): the dynamic cuckoo filter's no-false-
// negative and bounded-false-positive contracts across growth, the
// sharded key map under concurrent distinct-key traffic, and the
// registry-level composition — filter-fronted negative lookups, remove(),
// bounded residency with lease-pinned snapshots, eviction × quarantine
// interplay, resident-only refresh(), and a 100k-key stress pass. The
// concurrency cases here are on the TSan CI job's filter list.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "common/failpoint.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "fleet/cuckoo_filter.h"
#include "fleet/sharded_map.h"
#include "test_support.h"

namespace hmd {
namespace {

using core::ModelKind;

std::string nth_key(const char* prefix, int i) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s_%06d", prefix, i);
  return buffer;
}

/// Per-thread variant ("w3_000042"); kept out of string operator+ to
/// sidestep a GCC 12 -Wrestrict false positive on concatenated
/// temporaries under -Werror.
std::string nth_key(const char* prefix, int t, int i) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%s%d_%06d", prefix, t, i);
  return buffer;
}

// ---------------------------------------------------------------------------
// DynamicCuckooFilter

TEST(CuckooFilterTest, NoFalseNegativesAcrossGrowth) {
  fleet::DynamicCuckooFilter::Options options;
  options.initial_capacity = 64;  // force many growth segments
  fleet::DynamicCuckooFilter filter(options);

  const int n = 20000;
  for (int i = 0; i < n; ++i) filter.insert(nth_key("key", i));
  EXPECT_EQ(filter.size(), static_cast<std::size_t>(n));

  const fleet::FilterStats stats = filter.stats();
  EXPECT_GT(stats.segments, 1u);  // growth actually happened
  EXPECT_GE(stats.slots, static_cast<std::size_t>(n));

  // The hard invariant: every inserted key still answers "maybe" — a
  // false negative would make the registry deny a registered model.
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(filter.may_contain(nth_key("key", i))) << i;
  }
}

TEST(CuckooFilterTest, EraseRemovesExactlyOneFingerprint) {
  fleet::DynamicCuckooFilter filter;
  filter.insert("alpha");
  filter.insert("beta");
  EXPECT_TRUE(filter.may_contain("alpha"));
  EXPECT_TRUE(filter.erase("alpha"));
  EXPECT_FALSE(filter.erase("alpha"));  // one fingerprint, one erase
  EXPECT_TRUE(filter.may_contain("beta"));
  EXPECT_EQ(filter.size(), 1u);

  // Duplicate inserts stack fingerprints; each erase removes one.
  filter.insert("beta");
  EXPECT_TRUE(filter.erase("beta"));
  EXPECT_TRUE(filter.may_contain("beta"));  // second copy still resident
  EXPECT_TRUE(filter.erase("beta"));
}

TEST(CuckooFilterTest, FalsePositiveRateBoundedAtHighOccupancy) {
  fleet::DynamicCuckooFilter::Options options;
  options.initial_capacity = 1024;  // several growths by 50k keys
  fleet::DynamicCuckooFilter filter(options);

  const int members = 50000;
  for (int i = 0; i < members; ++i) filter.insert(nth_key("member", i));

  const int probes = 50000;
  int false_positives = 0;
  for (int i = 0; i < probes; ++i) {
    if (filter.may_contain(nth_key("stranger", i))) ++false_positives;
  }
  const double rate =
      static_cast<double>(false_positives) / static_cast<double>(probes);
  const fleet::FilterStats stats = filter.stats();
  // The acceptance bar is <= 1%; the analytic bound (segments * 8 /
  // 2^16) should both hold empirically and itself sit under that bar.
  EXPECT_LE(rate, 0.01) << "measured FP rate " << rate << " at occupancy "
                        << stats.occupancy;
  EXPECT_LE(rate, stats.fp_bound * 1.5);  // empirical ~<= analytic (slack)
  EXPECT_LE(stats.fp_bound, 0.01);
}

TEST(CuckooFilterTest, ConcurrentInsertAndProbeDuringGrowth) {
  fleet::DynamicCuckooFilter::Options options;
  options.initial_capacity = 64;  // growth happens *during* the writes
  fleet::DynamicCuckooFilter filter(options);

  const int threads = 8;
  const int per_thread = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(threads + 2);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&filter, t, per_thread] {
      for (int i = 0; i < per_thread; ++i) {
        filter.insert(nth_key("w", t, i));
      }
    });
  }
  // Concurrent readers race the growth path (TSan asserts the locking).
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&filter, &stop, r] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)filter.may_contain(nth_key("probe", (r * 100000) + (i++ % 997)));
      }
    });
  }
  for (int t = 0; t < threads; ++t) workers[t].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t t = threads; t < workers.size(); ++t) workers[t].join();

  EXPECT_EQ(filter.size(), static_cast<std::size_t>(threads * per_thread));
  for (int t = 0; t < threads; ++t) {
    for (int i = 0; i < per_thread; ++i) {
      ASSERT_TRUE(
          filter.may_contain(nth_key("w", t, i)));
    }
  }
}

TEST(CuckooFilterTest, RebuildCompactsChurnWithNoFalseNegatives) {
  fleet::DynamicCuckooFilter::Options options;
  options.initial_capacity = 64;  // churn inflates through many segments
  fleet::DynamicCuckooFilter filter(options);

  const int inserted = 20000;
  const int survivors = 1000;
  for (int i = 0; i < inserted; ++i) filter.insert(nth_key("key", i));
  for (int i = survivors; i < inserted; ++i) {
    ASSERT_TRUE(filter.erase(nth_key("key", i)));
  }
  const fleet::FilterStats before = filter.stats();
  ASSERT_GT(before.segments, 1u);  // the slack rebuild() exists to shed

  std::vector<std::string> live;
  live.reserve(survivors);
  for (int i = 0; i < survivors; ++i) live.push_back(nth_key("key", i));
  filter.rebuild({live.begin(), live.end()});

  const fleet::FilterStats after = filter.stats();
  EXPECT_EQ(after.rebuilds, 1u);
  EXPECT_EQ(after.segments, 1u);  // right-sized: one segment fits 1k keys
  EXPECT_LT(after.slots, before.slots);
  EXPECT_LE(after.fp_bound, before.fp_bound);
  EXPECT_EQ(filter.size(), static_cast<std::size_t>(survivors));

  // The hard invariant survives the swap: every live key still answers
  // "maybe"...
  for (int i = 0; i < survivors; ++i) {
    ASSERT_TRUE(filter.may_contain(nth_key("key", i))) << i;
  }
  // ...and the FP rate over strangers honours the (now single-segment)
  // bound. Erased keys are strangers too — their fingerprints are gone.
  int false_positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    if (filter.may_contain(nth_key("stranger", i))) ++false_positives;
  }
  const double rate =
      static_cast<double>(false_positives) / static_cast<double>(probes);
  EXPECT_LE(rate, after.fp_bound * 1.5 + 0.001) << "measured " << rate;

  // Filter stays fully writable after a rebuild.
  filter.insert("post_rebuild");
  EXPECT_TRUE(filter.may_contain("post_rebuild"));
}

TEST(CuckooFilterTest, RebuildUnderConcurrentProbesKeepsLiveKeysVisible) {
  fleet::DynamicCuckooFilter::Options options;
  options.initial_capacity = 64;
  fleet::DynamicCuckooFilter filter(options);

  // A stable live set the probing threads assert on throughout, plus a
  // churn range the writer cycles to force growth and rebuilds.
  const int stable = 2000;
  std::vector<std::string> live;
  live.reserve(stable);
  for (int i = 0; i < stable; ++i) {
    live.push_back(nth_key("stable", i));
    filter.insert(live.back());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> false_negatives{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&filter, &live, &stop, &false_negatives] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // A false negative on a live key here is the bug the graveyard
        // and the seqlock-validated swap exist to prevent.
        if (!filter.may_contain(
                live[static_cast<std::size_t>(i++) % live.size()])) {
          false_negatives.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }

  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 3000; ++i) filter.insert(nth_key("churn", round, i));
    for (int i = 0; i < 3000; ++i) {
      ASSERT_TRUE(filter.erase(nth_key("churn", round, i)));
    }
    filter.rebuild({live.begin(), live.end()});
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(false_negatives.load(), 0);

  const fleet::FilterStats stats = filter.stats();
  EXPECT_EQ(stats.rebuilds, 8u);
  EXPECT_EQ(filter.size(), static_cast<std::size_t>(stable));
  for (const std::string& key : live) {
    ASSERT_TRUE(filter.may_contain(key));
  }
}

// ---------------------------------------------------------------------------
// ShardedKeyMap

TEST(ShardedKeyMapTest, InsertFindEraseRoundTrip) {
  fleet::ShardedKeyMap<std::shared_ptr<int>> map(8);
  EXPECT_EQ(map.shard_count(), 8u);
  EXPECT_TRUE(map.insert_or_assign("a", std::make_shared<int>(1)));
  EXPECT_FALSE(map.insert_or_assign("a", std::make_shared<int>(2)));  // assign
  EXPECT_TRUE(map.insert_or_assign("b", std::make_shared<int>(3)));

  ASSERT_NE(map.find("a"), nullptr);
  EXPECT_EQ(*map.find("a"), 2);
  EXPECT_EQ(map.find("absent"), nullptr);  // default-constructed Value
  EXPECT_TRUE(map.contains(std::string_view("b")));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.sorted_keys(), (std::vector<std::string>{"a", "b"}));

  EXPECT_TRUE(map.erase("a"));
  EXPECT_FALSE(map.erase("a"));
  EXPECT_EQ(map.size(), 1u);
}

TEST(ShardedKeyMapTest, ShardCountRoundsUpToPowerOfTwo) {
  fleet::ShardedKeyMap<std::shared_ptr<int>> map(9);
  EXPECT_EQ(map.shard_count(), 16u);
  fleet::ShardedKeyMap<std::shared_ptr<int>> one(0);
  EXPECT_EQ(one.shard_count(), 1u);
}

TEST(ShardedKeyMapTest, ConcurrentDistinctKeysNeverSerialise) {
  fleet::ShardedKeyMap<std::shared_ptr<int>> map(16);
  const int threads = 8;
  const int per_thread = 4000;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&map, t, per_thread] {
      // Each thread owns a disjoint key range: insert, read back, erase a
      // third — the pattern the TSan job checks for shard-lock races.
      for (int i = 0; i < per_thread; ++i) {
        const std::string key = nth_key("t", t, i);
        map.insert_or_assign(key, std::make_shared<int>(i));
        const auto value = map.find(key);
        ASSERT_NE(value, nullptr);
        ASSERT_EQ(*value, i);
        if (i % 3 == 0) map.erase(key);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  std::size_t expected = 0;
  for (int i = 0; i < per_thread; ++i) expected += (i % 3 != 0) ? threads : 0;
  EXPECT_EQ(map.size(), expected);
}

// ---------------------------------------------------------------------------
// DetectorRegistry × fleet composition

class FleetRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("fleet_tmp");
  }
  void TearDown() override {
    fail::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  /// Train a tiny detector and save it under `name` (returns the path).
  std::string save_artifact(const std::string& name, ModelKind kind,
                            int members, std::uint64_t seed = 5) {
    core::HmdConfig config;
    config.model = kind;
    config.n_members = members;
    config.n_threads = 1;
    config.seed = seed;
    core::TrustedHmd hmd(config);
    hmd.fit(test::small_dvfs().train);
    const std::string path = (dir_ / (name + ".hmdf")).string();
    core::save_model(hmd, path);
    return path;
  }

  /// A fast policy for tests: millisecond backoffs, deterministic.
  static api::RetryPolicy fast_policy(int max_attempts = 1,
                                      int quarantine_after = 2,
                                      int quarantine_ms = 60000) {
    api::RetryPolicy policy;
    policy.max_attempts = max_attempts;
    policy.initial_backoff_ms = 1;
    policy.backoff_multiplier = 1;
    policy.max_backoff_ms = 1;
    policy.jitter = 0.0;
    policy.quarantine_after = quarantine_after;
    policy.quarantine_ms = quarantine_ms;
    return policy;
  }

  /// The registry ledger's footprint of one loaded artifact.
  static std::size_t footprint(api::DetectorRegistry& registry,
                               const std::string& key) {
    return registry.get(key)->engine().memory_bytes();
  }

  std::filesystem::path dir_;
};

TEST_F(FleetRegistryTest, UnknownKeysBounceOffTheFilterFrontDoor) {
  save_artifact("real", ModelKind::kRandomForest, 3);
  api::DetectorRegistry registry(1);
  registry.add("real", dir_.string() + "/real.hmdf");

  EXPECT_TRUE(registry.contains("real"));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(registry.try_get(nth_key("bogus", i)), nullptr);
    EXPECT_FALSE(registry.contains(nth_key("evil", i)));
  }
  const fleet::FleetStats stats = registry.fleet_stats();
  EXPECT_TRUE(stats.filter.enabled);
  EXPECT_EQ(stats.keys, 1u);
  // Nearly all 200 unknown probes must have been answered by the filter
  // alone (a handful may false-positive through to the exact map).
  EXPECT_GE(stats.filter.rejected, 190u);
  EXPECT_THROW(registry.get("nope"), IoError);
}

TEST_F(FleetRegistryTest, FilterOffStaysExact) {
  save_artifact("real", ModelKind::kRandomForest, 3);
  fleet::FleetOptions options;
  options.filter = false;
  api::DetectorRegistry registry(1, core::LoadMode::kAuto, options);
  registry.add("real", dir_.string() + "/real.hmdf");

  EXPECT_TRUE(registry.contains("real"));
  EXPECT_FALSE(registry.contains("bogus"));
  EXPECT_EQ(registry.try_get("bogus"), nullptr);
  const fleet::FleetStats stats = registry.fleet_stats();
  EXPECT_FALSE(stats.filter.enabled);
  EXPECT_EQ(stats.filter.rejected, 0u);
  EXPECT_NE(registry.get("real"), nullptr);
}

TEST_F(FleetRegistryTest, RemoveUnregistersButSnapshotsSurvive) {
  save_artifact("model", ModelKind::kRandomForest, 3);
  api::DetectorRegistry registry(1);
  registry.add("model", dir_.string() + "/model.hmdf");

  const auto snapshot = registry.get("model");
  EXPECT_TRUE(registry.remove("model"));
  EXPECT_FALSE(registry.remove("model"));  // second remove: not registered
  EXPECT_FALSE(registry.contains("model"));
  EXPECT_EQ(registry.try_get("model"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_THROW(registry.get("model"), IoError);

  // The held snapshot is a lease on the old version: still scores.
  const auto& x = test::small_dvfs().test.X;
  EXPECT_EQ(test::score(*snapshot, x).rows, x.rows());
}

TEST_F(FleetRegistryTest, KeyChurnTriggersFilterRebuild) {
  // add()/remove()/contains() never touch the filesystem, so fake paths
  // are enough to drive the churn accounting.
  api::DetectorRegistry registry(1);
  const int total = 600;
  for (int i = 0; i < total; ++i) {
    registry.add(nth_key("m", i), "unused.hmdf");
  }
  ASSERT_EQ(registry.fleet_stats().filter.rebuilds, 0u);

  // Remove until erases-since-rebuild reaches both the floor and the
  // live count — the automatic compaction point remove() documents.
  const int removed = 500;
  for (int i = 0; i < removed; ++i) {
    ASSERT_TRUE(registry.remove(nth_key("m", i)));
  }
  const fleet::FleetStats stats = registry.fleet_stats();
  EXPECT_GE(stats.filter.rebuilds, 1u);
  EXPECT_EQ(stats.keys, static_cast<std::size_t>(total - removed));
  // Post-rebuild exactness both ways: live keys answer, removed keys
  // bounce (a rebuild that lost a live fingerprint would false-negative
  // here, through the public surface).
  for (int i = removed; i < total; ++i) {
    ASSERT_TRUE(registry.contains(nth_key("m", i))) << i;
  }
  int removed_hits = 0;
  for (int i = 0; i < removed; ++i) {
    if (registry.contains(nth_key("m", i))) ++removed_hits;
  }
  EXPECT_EQ(removed_hits, 0);  // exact map answers "no" regardless of FP

  // The explicit maintenance hook compacts on demand too.
  registry.rebuild_filter();
  EXPECT_GE(registry.fleet_stats().filter.rebuilds, 2u);
  EXPECT_EQ(registry.fleet_stats().filter.keys,
            static_cast<std::size_t>(total - removed));
}

TEST_F(FleetRegistryTest, ResidencyBudgetEvictsColdestAndReloadsBitIdentical) {
  for (int i = 0; i < 4; ++i) {
    save_artifact("m" + std::to_string(i), ModelKind::kRandomForest, 3,
                  /*seed=*/10 + static_cast<std::uint64_t>(i));
  }
  api::DetectorRegistry unbounded(1);
  ASSERT_EQ(unbounded.add_directory(dir_.string()), 4u);
  const std::size_t one = footprint(unbounded, "m0");
  ASSERT_GT(one, 0u);

  fleet::FleetOptions options;
  // Room for two artifacts, not four: loading all four must evict.
  options.residency_budget_bytes = 2 * one + one / 2;
  api::DetectorRegistry registry(1, core::LoadMode::kAuto, options);
  ASSERT_EQ(registry.add_directory(dir_.string()), 4u);

  for (int i = 0; i < 4; ++i) (void)registry.get("m" + std::to_string(i));

  const fleet::ResidencyStats stats = registry.fleet_stats().residency;
  EXPECT_LE(stats.resident_bytes, options.residency_budget_bytes);
  EXPECT_GE(stats.evictions, 2u);
  // The oldest keys were the coldest: m0 must be among the evicted.
  EXPECT_FALSE(registry.health("m0").loaded);
  EXPECT_GE(registry.health("m0").evictions, 1u);

  // An evicted key transparently reloads on next get(), bit-identical to
  // the unbounded registry serving the same artifact.
  const auto& x = test::small_dvfs().test.X;
  EXPECT_TRUE(api::bit_identical(test::score(*registry.get("m0"), x),
                                 test::score(*unbounded.get("m0"), x)));
  EXPECT_EQ(registry.health("m0").loads_ok, 2u);  // initial + post-evict
}

TEST_F(FleetRegistryTest, LeasePinnedSnapshotSurvivesEviction) {
  for (int i = 0; i < 3; ++i) {
    save_artifact("m" + std::to_string(i), ModelKind::kRandomForest, 3);
  }
  fleet::FleetOptions options;
  options.residency_budget_bytes = 1;  // everything is over budget
  api::DetectorRegistry registry(1, core::LoadMode::kAuto, options);
  ASSERT_EQ(registry.add_directory(dir_.string()), 3u);

  // Hold m0's snapshot across loads of m1 and m2, each of which sweeps.
  const auto pinned = registry.get("m0");
  (void)registry.get("m1");
  (void)registry.get("m2");

  // m0 was always the coldest candidate but is lease-pinned: never
  // evicted while held. m1 (unleased once its get() returned) was.
  EXPECT_TRUE(registry.health("m0").loaded);
  EXPECT_EQ(registry.health("m0").evictions, 0u);
  EXPECT_FALSE(registry.health("m1").loaded);
  EXPECT_GE(registry.fleet_stats().residency.pinned_skips, 1u);

  // The lease keeps serving bit-stable outputs throughout.
  const auto& x = test::small_dvfs().test.X;
  EXPECT_EQ(test::score(*pinned, x).rows, x.rows());
}

TEST_F(FleetRegistryTest, QuarantinedEntryIsEvictableAndKeepsCachedError) {
  save_artifact("model", ModelKind::kRandomForest, 3);
  api::DetectorRegistry registry(1);
  registry.add("model", dir_.string() + "/model.hmdf");
  registry.set_retry_policy(fast_policy(/*max_attempts=*/1,
                                        /*quarantine_after=*/2,
                                        /*quarantine_ms=*/60000));
  ASSERT_NE(registry.get("model"), nullptr);

  // Publish a replacement, then make every reload fail: two refresh()
  // probes quarantine the entry while it keeps serving last-good.
  save_artifact("model", ModelKind::kBaggedSvm, 5, /*seed=*/6);
  fail::Spec spec;
  spec.code = LoadErrorCode::kIo;
  spec.count = 0;  // every hit
  fail::arm("registry.load", spec);
  EXPECT_TRUE(registry.refresh().empty());
  EXPECT_TRUE(registry.refresh().empty());
  ASSERT_EQ(registry.health("model").state, api::HealthState::kQuarantined);
  EXPECT_TRUE(registry.health("model").loaded);  // serving last-good

  // Quarantined entries are NOT pinned: shrinking the budget evicts the
  // last-good snapshot (nobody leases it) but keeps the health record.
  registry.set_residency_budget_bytes(1);
  const api::ModelHealth evicted = registry.health("model");
  EXPECT_FALSE(evicted.loaded);
  EXPECT_EQ(evicted.evictions, 1u);
  EXPECT_EQ(evicted.state, api::HealthState::kQuarantined);
  EXPECT_EQ(evicted.last_error_code, LoadErrorCode::kIo);

  // With no snapshot left, a get() inside the TTL fails fast on the
  // *cached* error — no I/O probe (the failpoint hit count stays put).
  fail::disarm_all();
  const int hits_before = fail::hit_count("registry.load");
  try {
    registry.get("model");
    FAIL() << "expected fail-fast LoadError from quarantine";
  } catch (const LoadError& error) {
    EXPECT_EQ(error.code(), LoadErrorCode::kIo);
    EXPECT_NE(std::string(error.what()).find("quarantined"),
              std::string::npos);
  }
  EXPECT_EQ(fail::hit_count("registry.load"), hits_before);
}

TEST_F(FleetRegistryTest, RefreshStatsOnlyResidentsAndEvictedVerifyLazily) {
  save_artifact("a", ModelKind::kRandomForest, 3);
  save_artifact("b", ModelKind::kRandomForest, 3);
  api::DetectorRegistry unbounded(1);
  unbounded.add("a", dir_.string() + "/a.hmdf");
  const std::size_t one = footprint(unbounded, "a");

  fleet::FleetOptions options;
  options.residency_budget_bytes = one + one / 2;  // exactly one fits
  api::DetectorRegistry registry(1, core::LoadMode::kAuto, options);
  registry.add("a", dir_.string() + "/a.hmdf");
  registry.add("b", dir_.string() + "/b.hmdf");
  (void)registry.get("a");
  (void)registry.get("b");  // evicts a (coldest)
  ASSERT_FALSE(registry.health("a").loaded);
  ASSERT_TRUE(registry.health("b").loaded);

  // Swap BOTH artifacts on disk. refresh() is O(resident): it re-stats
  // and reloads only b; the evicted a is not probed at all.
  save_artifact("a", ModelKind::kBaggedSvm, 5, /*seed=*/7);
  save_artifact("b", ModelKind::kBaggedSvm, 5, /*seed=*/8);
  EXPECT_EQ(registry.refresh(), std::vector<std::string>{"b"});

  // The evicted key verifies lazily: its next get() loads the *new*
  // artifact from disk (the swap is not missed, just deferred).
  const auto reloaded = registry.get("a");
  EXPECT_EQ(reloaded->config().model, ModelKind::kBaggedSvm);
  EXPECT_EQ(reloaded->config().n_members, 5);
}

TEST_F(FleetRegistryTest, HundredThousandKeyStress) {
  const std::string path = save_artifact("seed", ModelKind::kRandomForest, 3);
  fleet::FleetOptions options;
  options.shards = 64;
  options.residency_budget_bytes = 1;  // maximum eviction churn
  api::DetectorRegistry registry(1, core::LoadMode::kAuto, options);

  const int n = 100000;
  for (int i = 0; i < n; ++i) registry.add(nth_key("fleet", i), path);
  EXPECT_EQ(registry.size(), static_cast<std::size_t>(n));

  // Serve a spread of the fleet with real artifact loads (all keys alias
  // one file; each load is its own detector, so the budget evicts the
  // previous key as each new one admits); reject unknown keys across the
  // whole keyspace, almost always straight from the filter.
  const int loads = 10000;
  for (int i = 0; i < loads; ++i) {
    ASSERT_NE(registry.try_get(nth_key("fleet", i * (n / loads))), nullptr)
        << i;
  }
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(registry.try_get(nth_key("missing", i)), nullptr) << i;
  }

  fleet::FleetStats stats = registry.fleet_stats();
  EXPECT_EQ(stats.keys, static_cast<std::size_t>(n));
  EXPECT_EQ(stats.shards, 64u);
  EXPECT_EQ(stats.filter.keys, static_cast<std::size_t>(n));
  EXPECT_LE(stats.filter.fp_bound, 0.01);
  // >= 99% of the 100k unknown probes answered by the filter alone.
  EXPECT_GE(stats.filter.rejected, static_cast<std::uint64_t>(n) * 99 / 100);
  // The 1-byte budget kept at most one entry resident at a time.
  EXPECT_LE(stats.residency.resident_entries, 1u);
  EXPECT_GE(stats.residency.evictions,
            static_cast<std::uint64_t>(loads) - 1);

  // Evict/erase interplay: remove a slice and the filter forgets it.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(registry.remove(nth_key("fleet", i)));
  }
  EXPECT_EQ(registry.size(), static_cast<std::size_t>(n - 1000));
  EXPECT_EQ(registry.try_get(nth_key("fleet", 0)), nullptr);
}

TEST_F(FleetRegistryTest, ConcurrentRegistrationLookupAndEviction) {
  const std::string path = save_artifact("seed", ModelKind::kRandomForest, 3);
  fleet::FleetOptions options;
  options.shards = 16;
  options.filter_options.initial_capacity = 64;  // grow under concurrency
  options.residency_budget_bytes = 1;            // evict constantly
  api::DetectorRegistry registry(1, core::LoadMode::kAuto, options);

  const int threads = 6;
  const int per_thread = 500;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(threads + 2);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&registry, &path, t, per_thread] {
      // Disjoint key ranges: register then immediately serve, racing the
      // other threads' loads, admits, and eviction sweeps.
      for (int i = 0; i < per_thread; ++i) {
        const std::string key =
            nth_key("c", t, i);
        registry.add(key, path);
        ASSERT_NE(registry.try_get(key), nullptr);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&registry, &stop, r] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)registry.try_get(nth_key("absent", (r * 100000) + (i++ % 997)));
      }
    });
  }
  for (int t = 0; t < threads; ++t) workers[t].join();
  stop.store(true, std::memory_order_relaxed);
  for (std::size_t t = threads; t < workers.size(); ++t) workers[t].join();

  EXPECT_EQ(registry.size(), static_cast<std::size_t>(threads * per_thread));
  for (int t = 0; t < threads; ++t) {
    for (int i = 0; i < per_thread; ++i) {
      ASSERT_TRUE(
          registry.contains(nth_key("c", t, i)));
    }
  }
}

}  // namespace
}  // namespace hmd
