// DetectorRegistry (api/detector_registry.h): lazy artifact loading,
// directory scans, snapshot semantics, and mtime/size-driven hot-swap —
// a rewritten artifact is picked up by refresh() while snapshots taken
// before the swap keep serving the old model, and a vanished artifact
// never takes a serving key down.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "test_support.h"

namespace hmd {
namespace {

using core::ModelKind;

class DetectorRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("registry_tmp");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

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

  std::filesystem::path dir_;
};

TEST_F(DetectorRegistryTest, AddDirectoryScansAndLazilyLoads) {
  save_artifact("dvfs_RF_M3", ModelKind::kRandomForest, 3);
  save_artifact("dvfs_LR_M5", ModelKind::kBaggedLogistic, 5);

  api::DetectorRegistry registry(1);
  EXPECT_EQ(registry.add_directory(dir_.string()), 2u);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.keys(),
            (std::vector<std::string>{"dvfs_LR_M5", "dvfs_RF_M3"}));
  EXPECT_TRUE(registry.contains("dvfs_RF_M3"));

  const auto rf = registry.get("dvfs_RF_M3");
  const auto lr = registry.get("dvfs_LR_M5");
  EXPECT_EQ(rf->config().model, ModelKind::kRandomForest);
  EXPECT_EQ(rf->config().n_members, 3);
  EXPECT_EQ(lr->config().model, ModelKind::kBaggedLogistic);
  EXPECT_EQ(lr->config().n_members, 5);

  // get() is a snapshot: the same loaded detector until something swaps.
  EXPECT_EQ(registry.get("dvfs_RF_M3").get(), rf.get());

  // Both serve real traffic from one registry — two model families, one
  // process.
  const auto& x = test::small_dvfs().test.X;
  EXPECT_EQ(test::score(*rf, x).rows, x.rows());
  EXPECT_EQ(test::score(*lr, x).rows, x.rows());
}

TEST_F(DetectorRegistryTest, UnknownKeyThrowsAndTryGetReturnsNull) {
  api::DetectorRegistry registry(1);
  EXPECT_THROW(registry.get("absent"), IoError);
  EXPECT_EQ(registry.try_get("absent"), nullptr);
  EXPECT_FALSE(registry.contains("absent"));
}

TEST_F(DetectorRegistryTest, RefreshHotSwapsRewrittenArtifact) {
  const std::string path = save_artifact("model", ModelKind::kRandomForest, 3);
  api::DetectorRegistry registry(1);
  registry.add("model", path);

  const auto before = registry.get("model");
  EXPECT_EQ(before->config().n_members, 3);
  EXPECT_TRUE(registry.refresh().empty());  // nothing changed yet

  // Retrain and drop the new artifact over the old file (different size,
  // so the swap is detected even on filesystems with coarse mtimes).
  save_artifact("model", ModelKind::kBaggedSvm, 5, /*seed=*/6);
  const auto reloaded = registry.refresh();
  ASSERT_EQ(reloaded, std::vector<std::string>{"model"});

  const auto after = registry.get("model");
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(after->config().model, ModelKind::kBaggedSvm);
  EXPECT_EQ(after->config().n_members, 5);

  // The pre-swap snapshot is pinned: still the old model, still serving.
  EXPECT_EQ(before->config().n_members, 3);
  const auto& x = test::small_dvfs().test.X;
  EXPECT_EQ(test::score(*before, x).rows, x.rows());
  EXPECT_EQ(test::score(*after, x).rows, x.rows());

  // A second refresh with no further writes is a no-op.
  EXPECT_TRUE(registry.refresh().empty());
}

TEST_F(DetectorRegistryTest, NeverLoadedKeysStayLazyThroughRefresh) {
  save_artifact("cold", ModelKind::kRandomForest, 3);
  api::DetectorRegistry registry(1);
  registry.add_directory(dir_.string());
  // refresh() must not force-load a key nobody asked for.
  EXPECT_TRUE(registry.refresh().empty());
  EXPECT_EQ(registry.get("cold")->config().n_members, 3);
}

TEST_F(DetectorRegistryTest, VanishedArtifactKeepsServingLastSnapshot) {
  const std::string path = save_artifact("model", ModelKind::kRandomForest, 3);
  api::DetectorRegistry registry(1);
  registry.add("model", path);
  const auto before = registry.get("model");

  std::filesystem::remove(path);
  EXPECT_TRUE(registry.refresh().empty());
  EXPECT_EQ(registry.get("model").get(), before.get());
}

TEST_F(DetectorRegistryTest, PathReturnsRegisteredArtifactPath) {
  const std::string path = save_artifact("model", ModelKind::kRandomForest, 3);
  api::DetectorRegistry registry(1);
  registry.add("model", path);
  EXPECT_EQ(registry.path("model"), path);
  EXPECT_THROW(registry.path("absent"), IoError);
}

TEST_F(DetectorRegistryTest, InvalidReplacementKeepsServingLastSnapshot) {
  const std::string path = save_artifact("model", ModelKind::kRandomForest, 3);
  api::DetectorRegistry registry(1);
  registry.add("model", path);
  const auto before = registry.get("model");

  // Corrupt the config *payload* while keeping the header valid: the
  // entropy_threshold double sits 12 bytes into the config section
  // (after the kind|members|mode u32s; the section's offset comes from
  // the v2 table at byte 16), and a negative value passes every IoError
  // check in load_model but is rejected by the detector's config
  // validation (InvalidArgument). refresh() must survive it and keep
  // the snapshot.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    std::uint64_t config_offset = 0;
    f.seekg(16);
    f.read(reinterpret_cast<char*>(&config_offset), sizeof(config_offset));
    f.seekp(static_cast<std::streamoff>(config_offset + 4 + 4 + 4));
    const double bad_threshold = -1.0;
    f.write(reinterpret_cast<const char*>(&bad_threshold),
            sizeof(bad_threshold));
  }
  EXPECT_TRUE(registry.refresh().empty());
  EXPECT_EQ(registry.get("model").get(), before.get());
}

TEST_F(DetectorRegistryTest, RepointedKeyReloadsFromNewPath) {
  const std::string rf = save_artifact("a", ModelKind::kRandomForest, 3);
  const std::string lr = save_artifact("b", ModelKind::kBaggedLogistic, 5);
  api::DetectorRegistry registry(1);
  registry.add("model", rf);
  EXPECT_EQ(registry.get("model")->config().model, ModelKind::kRandomForest);
  registry.add("model", lr);  // re-point
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.get("model")->config().model, ModelKind::kBaggedLogistic);
}

TEST_F(DetectorRegistryTest, AddDirectoryRejectsNonDirectories) {
  api::DetectorRegistry registry(1);
  EXPECT_THROW(registry.add_directory((dir_ / "nope").string()), IoError);
}

TEST_F(DetectorRegistryTest, SlowLoadOfOneKeyDoesNotBlockOthers) {
  // The load-outside-lock contract: while key A's first load is stuck in
  // artifact I/O, get("B") must complete. The loader seam parks A's load
  // on a semaphore; under the old load-under-registry-mutex design this
  // test deadlocks (ctest's timeout turns that into a failure).
  const std::string slow_path =
      save_artifact("slow", ModelKind::kRandomForest, 3);
  save_artifact("fast", ModelKind::kBaggedLogistic, 3);

  api::DetectorRegistry registry(1);
  registry.add_directory(dir_.string());

  std::atomic<bool> slow_entered{false};
  std::atomic<bool> slow_finished{false};
  std::binary_semaphore release_slow{0};
  registry.set_loader_for_testing(
      [&](const std::string& path, int n_threads) {
        if (path == slow_path) {
          slow_entered.store(true);
          release_slow.acquire();  // park inside the "I/O"
        }
        return std::make_shared<const core::TrustedHmd>(
            core::load_model(path, n_threads));
      });

  std::thread slow_caller([&] {
    const auto hmd = registry.get("slow");
    EXPECT_EQ(hmd->config().n_members, 3);
    slow_finished.store(true);
  });
  while (!slow_entered.load()) std::this_thread::yield();

  // A's load is parked. B must load and return on this thread now.
  const auto fast = registry.get("fast");
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(fast->config().model, ModelKind::kBaggedLogistic);
  // And the hot-swap sweep must skip the parked lazy entry instead of
  // queueing behind its load mutex — a refresh() completes right now.
  EXPECT_TRUE(registry.refresh().empty());
  EXPECT_FALSE(slow_finished.load());  // A really was still in-flight

  release_slow.release();
  slow_caller.join();
  EXPECT_EQ(registry.get("slow")->config().model, ModelKind::kRandomForest);
}

TEST_F(DetectorRegistryTest, ConcurrentFirstGetLoadsAtMostOnce) {
  save_artifact("model", ModelKind::kRandomForest, 3);
  api::DetectorRegistry registry(1);
  registry.add_directory(dir_.string());

  std::atomic<int> loads{0};
  registry.set_loader_for_testing(
      [&](const std::string& path, int n_threads) {
        loads.fetch_add(1);
        return std::make_shared<const core::TrustedHmd>(
            core::load_model(path, n_threads));
      });

  constexpr int kCallers = 8;
  std::vector<std::thread> callers;
  std::vector<std::shared_ptr<const core::TrustedHmd>> seen(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] { seen[i] = registry.get("model"); });
  }
  for (auto& thread : callers) thread.join();

  // One load for the whole wave, and every caller got the same snapshot.
  EXPECT_EQ(loads.load(), 1);
  for (int i = 1; i < kCallers; ++i) EXPECT_EQ(seen[i].get(), seen[0].get());
}

TEST_F(DetectorRegistryTest, ConcurrentGetAndRefreshStress) {
  // Hammer get() on several keys from reader threads while one thread
  // refresh()es and the main thread keeps rename-publishing a retrained
  // artifact over one key — the traffic pattern of a serving process
  // taking field updates. Every snapshot must be usable, and the final
  // state must reflect the last publish. (This is the test the TSan CI
  // job exists for.)
  const std::vector<std::string> keys = {"hot", "cold_a", "cold_b"};
  save_artifact("hot", ModelKind::kRandomForest, 3);
  save_artifact("cold_a", ModelKind::kBaggedLogistic, 3);
  save_artifact("cold_b", ModelKind::kRandomForest, 5);

  api::DetectorRegistry registry(1);
  registry.add_directory(dir_.string());

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      const auto& x = test::small_dvfs().test.X;
      while (!stop.load()) {
        const auto hmd = registry.get(keys[static_cast<std::size_t>(i)]);
        ASSERT_NE(hmd, nullptr);
        // Serve a real (tiny) batch so a torn swap would be observable.
        ASSERT_EQ(test::score(*hmd, x).rows, x.rows());
      }
    });
  }
  workers.emplace_back([&] {
    while (!stop.load()) {
      registry.refresh();
      std::this_thread::yield();
    }
  });

  // Field updates: grow the hot key's ensemble a few times mid-traffic.
  for (const int members : {5, 7, 9}) {
    save_artifact("hot", ModelKind::kRandomForest, members, /*seed=*/11);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (auto& worker : workers) worker.join();

  registry.refresh();  // deterministic final sync
  EXPECT_EQ(registry.get("hot")->config().n_members, 9);
  EXPECT_EQ(registry.get("cold_a")->config().n_members, 3);
}

}  // namespace
}  // namespace hmd
