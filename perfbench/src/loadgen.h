#pragma once
// The benchmark's load generator: one thread, non-blocking loopback
// sockets, HMDW frames built and read with serve::wire's public
// encode/decode calls. Open-loop phases time every request from when it
// was due (not when it was sent), so a generator or server stall is
// charged to every request it delays; closed-loop phases keep a fixed
// number of requests outstanding per connection. Every response is
// checked against a direct score() oracle before it counts.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/score.h"
#include "core/inference_engine.h"

namespace hmd::core {
class UntrustedHmd;
}  // namespace hmd::core

namespace perfbench {

/// One acceptable answer to a request: the result payload a direct
/// exact-tier score() on the request's rows packs to.
struct Answer {
  std::vector<unsigned char> payload;  ///< result frame minus its header
  hmd::api::ScoreResult columns;       ///< the same, decoded (fast-tier band)
};

/// A request the generator can send, with what counts as its answer.
struct Shape {
  std::string key;
  int key_index = -1;  ///< into the workload's registered keys; -1 unknown
  const double* features = nullptr;  ///< rows x cols, row-major
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  hmd::api::OutputMask outputs = hmd::api::kDetectionOutputs;
  hmd::core::Accuracy accuracy = hmd::core::Accuracy::kExact;
  bool zero_day = false;     ///< rows come from the unknown (zero-day) split
  bool unknown_key = false;  ///< an unknown-model error is the right answer
  /// Any one of these is correct: a key being re-published between two
  /// versions may answer from either. Empty for unknown keys.
  std::vector<const Answer*> answers;
};

/// Predicts, from the send order alone, whether a request's key was
/// resident in the server: the registry's least-recently-used eviction
/// under the same byte budget, fed the same key sequence.
class ResidencyModel {
 public:
  ResidencyModel(std::vector<std::size_t> footprint, std::size_t budget);
  /// Record a use of `key`; returns true when it was not resident.
  bool use(int key);

 private:
  std::vector<std::size_t> footprint_;
  std::vector<std::uint64_t> last_used_;  ///< 0 = not resident
  std::size_t budget_;
  std::size_t resident_ = 0;
  std::uint64_t clock_ = 0;
};

struct Phase {
  double rate = 0.0;     ///< open loop requests/s; 0 = closed loop
  int connections = 1;
  int pipeline = 1;      ///< closed loop: outstanding per connection
  double seconds = 1.0;
  /// Planted faults for the benchmark's own tests: flip one byte of the
  /// n-th response (1-based; 0 = never) and stall the generator once.
  std::uint64_t corrupt_nth = 0;
  double stall_ms = 0.0;
  /// Traced phase: also record each request's encode and verify spans.
  bool trace = false;
};

enum class Status : std::uint8_t { kPending = 0, kOk, kFailed };

/// One request's span: due, sent and answered, in ns since phase start.
struct Record {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = -1;
  std::int64_t done_ns = -1;
  std::uint32_t shape = 0;
  Status status = Status::kPending;
  bool cold = false;  ///< key predicted not resident when sent
  std::int32_t encode_ns = -1;  ///< traced phases: wire encode span
  std::int32_t verify_ns = -1;  ///< traced phases: decode + verify span
};

struct PhaseResult {
  std::vector<Record> records;
  std::uint64_t rows_ok = 0;
  std::uint64_t zero_day_rows = 0;     ///< correct zero-day rows served
  std::uint64_t zero_day_flagged = 0;  ///< ... of which trusted == 0
  double seconds = 0.0;  ///< first due to last answer
  std::string first_failure;

  std::uint64_t count(Status status) const;
};

/// Run one phase against 127.0.0.1:`port`. Requests take shapes from
/// `sequence` in order (cycled); `residency` (optional) classifies cold
/// requests.
PhaseResult run_phase(const Phase& phase, const std::vector<Shape>& shapes,
                      const std::vector<std::uint32_t>& sequence,
                      std::uint16_t port, ResidencyModel* residency);

/// Verify one response frame (`bytes`, `size` long) against `shape`.
/// Returns false with `why` set on any mismatch; counts zero-day rows
/// and their trust flags from the served bytes.
bool verify_response(const unsigned char* bytes, std::size_t size,
                     const Shape& shape, std::uint32_t request_id,
                     std::string& why, std::uint64_t& zero_day_flagged);

/// Exact-tier oracle: what a direct score() of `shape`'s rows packs to.
std::unique_ptr<Answer> make_answer(const hmd::core::UntrustedHmd& hmd,
                                    const Shape& shape);

/// Quantile of an ascending sample (linear interpolation).
double quantile(const std::vector<double>& sorted, double q);

}  // namespace perfbench
