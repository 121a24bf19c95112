#include "serve/batcher.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/hmd.h"

namespace hmd::serve {

MicroBatcher::MicroBatcher(api::DetectorRegistry& registry,
                           BatcherOptions options, ResultSink on_result,
                           ErrorSink on_error)
    : registry_(registry),
      options_(options),
      on_result_(std::move(on_result)),
      on_error_(std::move(on_error)) {
  HMD_REQUIRE(options_.max_batch_rows >= 1,
              "MicroBatcher: max_batch_rows must be >= 1");
  HMD_REQUIRE(options_.max_delay_us >= 0,
              "MicroBatcher: max_delay_us must be >= 0");
}

void MicroBatcher::enqueue(std::uint64_t conn_id, std::uint32_t request_id,
                           std::string_view model_key,
                           api::OutputMask outputs,
                           std::optional<core::UncertaintyMode> mode,
                           const unsigned char* features_le,
                           std::uint32_t rows, std::uint32_t cols,
                           core::Accuracy accuracy) {
  BatchItem item;
  item.conn_id = conn_id;
  item.request_id = request_id;
  item.outputs = outputs;
  item.accuracy = accuracy;
  item.rows = rows;

  // Reject unscorable requests before they can touch a queue: an unknown
  // key must not delay (or be delayed by) queued work for real models.
  // The registry answers the common never-registered case straight from
  // its cuckoo-filter front door — no shard lock, no key allocation — so
  // a flood of bogus keys cannot contend with real lookups.
  if (!registry_.contains(model_key)) {
    ++stats_.errors;
    on_error_(item, wire::ErrorCode::kUnknownModel,
              "unknown model key '" + std::string(model_key) + "'");
    return;
  }

  const QueueKey key(std::string(model_key),
                     mode ? static_cast<int>(*mode) : -1,
                     static_cast<int>(accuracy));
  Queue& q = queues_[key];
  if (q.items.empty()) {
    q.model_key = std::get<0>(key);
    q.mode = mode;
    q.accuracy = accuracy;
    q.cols = cols;  // re-fixed each time the queue drains
  } else if (q.cols != cols) {
    ++stats_.errors;
    on_error_(item, wire::ErrorCode::kShapeMismatch,
              "request has " + std::to_string(cols) +
                  " features; the pending batch for this model has " +
                  std::to_string(q.cols));
    return;
  }

  item.row_begin = q.rows_data.size() / cols;
  const std::size_t offset = q.rows_data.size();
  q.rows_data.resize(offset + std::size_t{rows} * cols);
  std::memcpy(q.rows_data.data() + offset, features_le,
              std::size_t{rows} * cols * sizeof(double));
  if (q.items.empty()) q.oldest = Clock::now();
  q.items.push_back(item);
  pending_rows_ += rows;
  ++stats_.requests;
  stats_.rows += rows;

  if (q.rows_data.size() / cols >= options_.max_batch_rows) {
    flush_queue(q, FlushWhy::kRowsCap);
  }
}

std::optional<MicroBatcher::Clock::time_point> MicroBatcher::next_deadline()
    const {
  std::optional<Clock::time_point> earliest;
  for (const auto& [key, q] : queues_) {
    if (q.items.empty()) continue;
    const auto deadline =
        q.oldest + std::chrono::microseconds(options_.max_delay_us);
    if (!earliest || deadline < *earliest) earliest = deadline;
  }
  return earliest;
}

void MicroBatcher::flush_due(Clock::time_point now) {
  for (auto& [key, q] : queues_) {
    if (q.items.empty()) continue;
    if (q.oldest + std::chrono::microseconds(options_.max_delay_us) <= now) {
      flush_queue(q, FlushWhy::kDeadline);
    }
  }
}

void MicroBatcher::flush_all() {
  for (auto& [key, q] : queues_) {
    if (!q.items.empty()) flush_queue(q, FlushWhy::kIdle);
  }
}

void MicroBatcher::flush_queue(Queue& q, FlushWhy why) {
  const std::size_t total_rows = q.rows_data.size() / q.cols;
  switch (why) {
    case FlushWhy::kRowsCap: ++stats_.flushed_rows_cap; break;
    case FlushWhy::kDeadline: ++stats_.flushed_deadline; break;
    case FlushWhy::kIdle: ++stats_.flushed_idle; break;
  }

  std::shared_ptr<const core::TrustedHmd> hmd;
  try {
    hmd = registry_.get(q.model_key);
  } catch (const LoadError& e) {
    fail_queue(q, wire::error_code_for(e.code()), e.detail());
    return;
  } catch (const HmdError& e) {
    fail_queue(q, wire::ErrorCode::kUnknownModel, e.what());
    return;
  }
  if (hmd->engine().n_features() != q.cols) {
    fail_queue(q, wire::ErrorCode::kShapeMismatch,
               "model expects " +
                   std::to_string(hmd->engine().n_features()) +
                   " features, request has " + std::to_string(q.cols));
    return;
  }

  // Steady-state no-alloc gather: adopt the reused row buffer as a
  // Matrix, score, then take the storage back for the next batch.
  Matrix x = Matrix::from_storage(total_rows, q.cols,
                                  std::move(q.rows_data));
  api::ScoreRequest request;
  request.x = &x;
  request.mode = q.mode;
  request.accuracy = q.accuracy;
  request.outputs = 0;
  for (const BatchItem& item : q.items) request.outputs |= item.outputs;

  ++stats_.batches;
  stats_.max_batch_rows_seen =
      std::max<std::uint64_t>(stats_.max_batch_rows_seen, total_rows);
  pending_rows_ -= total_rows;

  try {
    hmd->score(request, q.result);
  } catch (const HmdError& e) {
    q.rows_data = std::move(x.storage());
    q.rows_data.clear();
    std::vector<BatchItem> items = std::move(q.items);
    q.items.clear();
    for (const BatchItem& item : items) {
      ++stats_.errors;
      on_error_(item, wire::ErrorCode::kBadPayload,
                std::string("score failed: ") + e.what());
    }
    return;
  }

  q.rows_data = std::move(x.storage());
  q.rows_data.clear();
  // Swap the item list out before running sinks: a sink may re-enter
  // enqueue() for this same queue (a client pipelining on its callback).
  std::vector<BatchItem> items = std::move(q.items);
  q.items.clear();
  for (const BatchItem& item : items) on_result_(item, q.result);
  // Hand the list's capacity back for reuse if nothing repopulated it.
  if (q.items.empty()) {
    items.clear();
    q.items = std::move(items);
  }
}

void MicroBatcher::fail_queue(Queue& q, wire::ErrorCode code,
                              const std::string& detail) {
  pending_rows_ -= q.rows_data.size() / q.cols;
  q.rows_data.clear();
  std::vector<BatchItem> items = std::move(q.items);
  q.items.clear();
  for (const BatchItem& item : items) {
    ++stats_.errors;
    on_error_(item, code, detail);
  }
  if (q.items.empty()) {
    items.clear();
    q.items = std::move(items);
  }
}

}  // namespace hmd::serve
