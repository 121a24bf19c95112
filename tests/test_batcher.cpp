// The adaptive micro-batcher (serve/batcher.h): flush triggers (rows cap
// inside enqueue, deadline via flush_due, idle via flush_all), per-model
// and per-mode queue isolation, immediate rejection of unscorable
// requests, and the scatter/gather parity claim — a response sliced out
// of a coalesced multi-connection batch is bit-identical to a direct
// score() on the request's rows, per mask.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "api/detector_registry.h"
#include "api/score.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "serve/batcher.h"
#include "serve/wire.h"
#include "test_support.h"

namespace hmd {
namespace {

using serve::BatchItem;
using serve::BatcherOptions;
using serve::MicroBatcher;
using serve::wire::ErrorCode;

/// Everything a sink saw, in callback order.
struct SinkLog {
  struct Answer {
    BatchItem item;
    api::ScoreResult batch;  ///< deep copy of the coalesced result
  };
  struct Failure {
    BatchItem item;
    ErrorCode code = ErrorCode::kNone;
    std::string detail;
  };
  std::vector<Answer> answers;
  std::vector<Failure> failures;
};

class MicroBatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("batcher_tmp");
    core::HmdConfig config;
    config.n_members = 7;
    config.n_threads = 1;
    config.seed = 5;
    hmd_.emplace(config);
    hmd_->fit(test::small_dvfs().train);
    core::save_model(*hmd_, (dir_ / "good.hmdf").string());
    registry_.emplace(1);
    registry_->add("good", (dir_ / "good.hmdf").string());
    // Registered but unloadable: the isolation tests' broken sibling.
    registry_->add("broken", (dir_ / "missing.hmdf").string());
  }

  void TearDown() override {
    registry_.reset();
    std::filesystem::remove_all(dir_);
  }

  MicroBatcher make(BatcherOptions options) {
    return MicroBatcher(
        *registry_, options,
        [this](const BatchItem& item, const api::ScoreResult& result) {
          log_.answers.push_back({item, result});
        },
        [this](const BatchItem& item, ErrorCode code,
               const std::string& detail) {
          log_.failures.push_back({item, code, detail});
        });
  }

  const Matrix& x() const { return test::small_dvfs().test.X; }

  const unsigned char* row_bytes(std::size_t r) const {
    return reinterpret_cast<const unsigned char*>(x().row_ptr(r));
  }

  /// Direct score() of rows [begin, begin+rows) under `outputs` — the
  /// oracle a scattered batch slice must match bit for bit.
  api::ScoreResult direct(std::size_t begin, std::size_t rows,
                          api::OutputMask outputs,
                          std::optional<core::UncertaintyMode> mode = {}) {
    Matrix slice(rows, x().cols());
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(slice.row_ptr(r), x().row_ptr(begin + r),
                  x().cols() * sizeof(double));
    }
    api::ScoreRequest request;
    request.x = &slice;
    request.outputs = outputs;
    request.mode = mode;
    api::ScoreResult result;
    hmd_->score(request, result);
    return result;
  }

  /// Slice `item`'s rows out of its batch with the wire encoder (the
  /// exact scatter path the server uses) and compare against `want`.
  static void expect_slice_matches(const SinkLog::Answer& answer,
                                   const api::ScoreResult& want) {
    std::vector<unsigned char> bytes;
    serve::wire::append_result(bytes, answer.item.request_id,
                               answer.item.outputs, answer.batch,
                               answer.item.row_begin, answer.item.rows);
    serve::wire::Frame frame;
    ASSERT_EQ(serve::wire::parse_frame(bytes.data(), bytes.size(), 64u << 20,
                                       frame),
              bytes.size());
    api::ScoreResult got;
    serve::wire::unpack_result(frame.result, got);
    ASSERT_EQ(got.rows, want.rows);
    const auto compare = [&](const auto& a, const auto& b, const char* name) {
      ASSERT_EQ(a.size(), b.size()) << name;
      if (!a.empty()) {
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(a[0])),
                  0)
            << name;
      }
    };
    compare(got.prediction, want.prediction, "prediction");
    compare(got.confidence, want.confidence, "confidence");
    compare(got.votes, want.votes, "votes");
    compare(got.vote_entropy, want.vote_entropy, "vote_entropy");
    compare(got.soft_entropy, want.soft_entropy, "soft_entropy");
    compare(got.expected_entropy, want.expected_entropy, "expected_entropy");
    compare(got.mutual_information, want.mutual_information,
            "mutual_information");
    compare(got.variation_ratio, want.variation_ratio, "variation_ratio");
    compare(got.max_probability, want.max_probability, "max_probability");
    compare(got.score, want.score, "score");
    compare(got.trusted, want.trusted, "trusted");
  }

  std::filesystem::path dir_;
  std::optional<core::TrustedHmd> hmd_;
  std::optional<api::DetectorRegistry> registry_;
  SinkLog log_;
};

TEST_F(MicroBatcherTest, RowsCapFlushesInsideEnqueue) {
  BatcherOptions options;
  options.max_batch_rows = 4;
  options.max_delay_us = 1'000'000;  // deadline can't be the trigger here
  MicroBatcher batcher = make(options);

  batcher.enqueue(1, 100, "good", api::kDetectionOutputs, std::nullopt,
                  row_bytes(0), 2, x().cols());
  EXPECT_TRUE(log_.answers.empty());
  EXPECT_EQ(batcher.pending_rows(), 2u);

  batcher.enqueue(2, 200, "good", api::kDetectionOutputs, std::nullopt,
                  row_bytes(2), 2, x().cols());
  ASSERT_EQ(log_.answers.size(), 2u);  // cap hit: flushed synchronously
  EXPECT_EQ(batcher.pending_rows(), 0u);
  EXPECT_EQ(batcher.stats().flushed_rows_cap, 1u);
  EXPECT_EQ(batcher.stats().batches, 1u);
  EXPECT_EQ(batcher.stats().max_batch_rows_seen, 4u);

  // Both answers scatter out of ONE coalesced batch, bit-identical to
  // direct score() of each request's own rows.
  EXPECT_EQ(log_.answers[0].item.request_id, 100u);
  EXPECT_EQ(log_.answers[0].item.row_begin, 0u);
  EXPECT_EQ(log_.answers[1].item.request_id, 200u);
  EXPECT_EQ(log_.answers[1].item.row_begin, 2u);
  expect_slice_matches(log_.answers[0],
                       direct(0, 2, api::kDetectionOutputs));
  expect_slice_matches(log_.answers[1],
                       direct(2, 2, api::kDetectionOutputs));
}

TEST_F(MicroBatcherTest, DeadlineFlushViaFlushDue) {
  BatcherOptions options;
  options.max_batch_rows = 1000;
  options.max_delay_us = 500;
  MicroBatcher batcher = make(options);

  batcher.enqueue(1, 1, "good", api::kDetectionOutputs, std::nullopt,
                  row_bytes(0), 3, x().cols());
  const auto deadline = batcher.next_deadline();
  ASSERT_TRUE(deadline.has_value());

  // Before the deadline: nothing flushes.
  batcher.flush_due(*deadline - std::chrono::microseconds(100));
  EXPECT_TRUE(log_.answers.empty());
  EXPECT_EQ(batcher.pending_rows(), 3u);

  // At/after the deadline: the queue drains with the deadline trigger.
  batcher.flush_due(*deadline);
  ASSERT_EQ(log_.answers.size(), 1u);
  EXPECT_EQ(batcher.pending_rows(), 0u);
  EXPECT_EQ(batcher.stats().flushed_deadline, 1u);
  EXPECT_FALSE(batcher.next_deadline().has_value());
  expect_slice_matches(log_.answers[0], direct(0, 3, api::kDetectionOutputs));
}

TEST_F(MicroBatcherTest, IdleFlushAnswersEverythingPending) {
  MicroBatcher batcher = make(BatcherOptions{});
  batcher.enqueue(1, 1, "good", api::kDetectionOutputs, std::nullopt,
                  row_bytes(0), 1, x().cols());
  batcher.flush_all();
  ASSERT_EQ(log_.answers.size(), 1u);
  EXPECT_EQ(batcher.stats().flushed_idle, 1u);
  EXPECT_EQ(batcher.pending_rows(), 0u);
  expect_slice_matches(log_.answers[0], direct(0, 1, api::kDetectionOutputs));
}

TEST_F(MicroBatcherTest, UnknownKeyRejectedImmediatelyWithoutQueueing) {
  MicroBatcher batcher = make(BatcherOptions{});
  batcher.enqueue(1, 42, "never_registered", api::kDetectionOutputs,
                  std::nullopt, row_bytes(0), 1, x().cols());
  ASSERT_EQ(log_.failures.size(), 1u);  // answered inside enqueue()
  EXPECT_EQ(log_.failures[0].code, ErrorCode::kUnknownModel);
  EXPECT_EQ(log_.failures[0].item.request_id, 42u);
  EXPECT_EQ(batcher.pending_rows(), 0u);
  EXPECT_EQ(batcher.stats().errors, 1u);
}

TEST_F(MicroBatcherTest, BrokenModelFailsOnlyItsOwnQueue) {
  MicroBatcher batcher = make(BatcherOptions{});
  batcher.enqueue(1, 1, "good", api::kDetectionOutputs, std::nullopt,
                  row_bytes(0), 2, x().cols());
  batcher.enqueue(2, 2, "broken", api::kDetectionOutputs, std::nullopt,
                  row_bytes(2), 2, x().cols());
  batcher.flush_all();

  // The broken model's load failure maps into the kLoad* wire range and
  // fails only its own requests; the good queue still answers.
  ASSERT_EQ(log_.answers.size(), 1u);
  EXPECT_EQ(log_.answers[0].item.request_id, 1u);
  expect_slice_matches(log_.answers[0], direct(0, 2, api::kDetectionOutputs));
  ASSERT_EQ(log_.failures.size(), 1u);
  EXPECT_EQ(log_.failures[0].item.request_id, 2u);
  EXPECT_GE(static_cast<std::uint32_t>(log_.failures[0].code), 100u);
  EXPECT_EQ(batcher.pending_rows(), 0u);
}

TEST_F(MicroBatcherTest, ShapeConflictsRejectedWithoutPoisoningTheQueue) {
  MicroBatcher batcher = make(BatcherOptions{});
  batcher.enqueue(1, 1, "good", api::kDetectionOutputs, std::nullopt,
                  row_bytes(0), 2, x().cols());
  // Different width than the pending batch: rejected at enqueue.
  batcher.enqueue(2, 2, "good", api::kDetectionOutputs, std::nullopt,
                  row_bytes(0), 1, x().cols() - 1);
  ASSERT_EQ(log_.failures.size(), 1u);
  EXPECT_EQ(log_.failures[0].code, ErrorCode::kShapeMismatch);
  EXPECT_EQ(log_.failures[0].item.request_id, 2u);

  // The queued request is unharmed.
  batcher.flush_all();
  ASSERT_EQ(log_.answers.size(), 1u);
  expect_slice_matches(log_.answers[0], direct(0, 2, api::kDetectionOutputs));
}

TEST_F(MicroBatcherTest, WrongWidthForTheModelFailsTheQueueTyped) {
  MicroBatcher batcher = make(BatcherOptions{});
  // Consistent within the queue, but not the model's n_features():
  // caught against the engine at flush time.
  std::vector<double> narrow(x().cols() - 1, 0.25);
  batcher.enqueue(1, 9, "good", api::kDetectionOutputs, std::nullopt,
                  reinterpret_cast<const unsigned char*>(narrow.data()), 1,
                  x().cols() - 1);
  batcher.flush_all();
  ASSERT_EQ(log_.failures.size(), 1u);
  EXPECT_EQ(log_.failures[0].code, ErrorCode::kShapeMismatch);
  EXPECT_TRUE(log_.answers.empty());
  EXPECT_EQ(batcher.pending_rows(), 0u);
}

TEST_F(MicroBatcherTest, ModesNeverShareABatch) {
  MicroBatcher batcher = make(BatcherOptions{});
  batcher.enqueue(1, 1, "good", api::kEstimateOutputs,
                  core::UncertaintyMode::kVoteEntropy, row_bytes(0), 1,
                  x().cols());
  batcher.enqueue(1, 2, "good", api::kEstimateOutputs,
                  core::UncertaintyMode::kSoftEntropy, row_bytes(1), 1,
                  x().cols());
  batcher.enqueue(1, 3, "good", api::kEstimateOutputs, std::nullopt,
                  row_bytes(2), 1, x().cols());
  batcher.flush_all();
  // Three queues, three score() calls — kOutScore/kOutTrusted depend on
  // the mode, so merging them would change bytes.
  EXPECT_EQ(batcher.stats().batches, 3u);
  ASSERT_EQ(log_.answers.size(), 3u);
  for (const auto& answer : log_.answers) {
    const std::size_t row = answer.item.request_id - 1;
    std::optional<core::UncertaintyMode> mode;
    if (answer.item.request_id == 1) {
      mode = core::UncertaintyMode::kVoteEntropy;
    } else if (answer.item.request_id == 2) {
      mode = core::UncertaintyMode::kSoftEntropy;
    }
    expect_slice_matches(answer, direct(row, 1, api::kEstimateOutputs, mode));
  }
}

TEST_F(MicroBatcherTest, AccuracyTiersNeverShareABatch) {
  MicroBatcher batcher = make(BatcherOptions{});
  // Same model, same mode, same mask — only the tier differs. Coalescing
  // them would score the exact rows through the fast kernels (or vice
  // versa), so they must land in separate queues.
  batcher.enqueue(1, 1, "good", api::kEstimateOutputs,
                  core::UncertaintyMode::kSoftEntropy, row_bytes(0), 2,
                  x().cols(), core::Accuracy::kExact);
  batcher.enqueue(2, 2, "good", api::kEstimateOutputs,
                  core::UncertaintyMode::kSoftEntropy, row_bytes(2), 2,
                  x().cols(), core::Accuracy::kFast);
  batcher.flush_all();
  EXPECT_EQ(batcher.stats().batches, 2u);  // one score() call per tier
  ASSERT_EQ(log_.answers.size(), 2u);
  for (const auto& answer : log_.answers) {
    if (answer.item.request_id == 1) {
      EXPECT_EQ(answer.item.accuracy, core::Accuracy::kExact);
      // The exact tier keeps the bit-parity scatter/gather contract even
      // with a fast sibling in flight.
      expect_slice_matches(answer,
                           direct(0, 2, api::kEstimateOutputs,
                                  core::UncertaintyMode::kSoftEntropy));
    } else {
      EXPECT_EQ(answer.item.request_id, 2u);
      EXPECT_EQ(answer.item.accuracy, core::Accuracy::kFast);
      EXPECT_EQ(answer.batch.rows, 2u);
    }
  }
}

TEST_F(MicroBatcherTest, HeterogeneousMasksCoalesceAndScatterBitIdentical) {
  BatcherOptions options;
  options.max_batch_rows = 64;
  MicroBatcher batcher = make(options);

  // Three connections, three different masks, one model+mode queue: the
  // batch scores under the union mask, each response must carry exactly
  // its own mask's columns, bit-identical to a direct per-request score.
  const api::OutputMask masks[] = {api::kPredictionOnly | api::kOutTrusted,
                                   api::kDetectionOutputs,
                                   api::kEstimateOutputs};
  std::size_t begin = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    batcher.enqueue(/*conn_id=*/10 + i, /*request_id=*/i, "good", masks[i],
                    std::nullopt, row_bytes(begin), 3, x().cols());
    begin += 3;
  }
  batcher.flush_all();
  EXPECT_EQ(batcher.stats().batches, 1u);  // one coalesced score() call
  ASSERT_EQ(log_.answers.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto& answer = log_.answers[i];
    EXPECT_EQ(answer.item.conn_id, 10u + i);
    EXPECT_EQ(answer.item.row_begin, std::size_t{3} * i);
    expect_slice_matches(answer, direct(3 * i, 3, masks[i]));
  }
}

TEST_F(MicroBatcherTest, StatsAccumulateAcrossFlushes) {
  BatcherOptions options;
  options.max_batch_rows = 2;
  MicroBatcher batcher = make(options);
  for (std::uint32_t i = 0; i < 6; ++i) {
    batcher.enqueue(1, i, "good", api::kDetectionOutputs, std::nullopt,
                    row_bytes(i), 1, x().cols());
  }
  EXPECT_EQ(batcher.stats().requests, 6u);
  EXPECT_EQ(batcher.stats().rows, 6u);
  EXPECT_EQ(batcher.stats().batches, 3u);
  EXPECT_EQ(batcher.stats().flushed_rows_cap, 3u);
  EXPECT_EQ(log_.answers.size(), 6u);
}

}  // namespace
}  // namespace hmd
