#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

#include "common/matrix.h"
#include "core/hmd.h"
#include "serve/wire.h"

namespace perfbench {

namespace wire = hmd::serve::wire;
using hmd::api::ScoreResult;

namespace {

using SteadyClock = std::chrono::steady_clock;

std::int64_t ns_since(SteadyClock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now() - start)
      .count();
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

// Fast-tier band against the exact oracle — the contract of api/score.h
// as the repository's own end-to-end tests check it: doubles within 8
// ULP (or 1e-12 absolute, for mutual information's cancellation),
// integer columns bit-identical.
constexpr std::uint64_t kBandUlps = 8;
constexpr double kBandAbs = 1e-12;

std::uint64_t value_rank(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return (bits >> 63) ? ~bits : (bits | 0x8000000000000000ull);
}

bool in_band(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(double)) == 0) continue;
    if (std::abs(got[i] - want[i]) <= kBandAbs) continue;
    const std::uint64_t a = value_rank(got[i]);
    const std::uint64_t b = value_rank(want[i]);
    if ((a > b ? a - b : b - a) > kBandUlps) return false;
  }
  return true;
}

bool columns_in_band(const ScoreResult& got, const ScoreResult& want) {
  return got.prediction == want.prediction && got.votes == want.votes &&
         got.trusted == want.trusted &&
         in_band(got.confidence, want.confidence) &&
         in_band(got.vote_entropy, want.vote_entropy) &&
         in_band(got.soft_entropy, want.soft_entropy) &&
         in_band(got.expected_entropy, want.expected_entropy) &&
         in_band(got.mutual_information, want.mutual_information) &&
         in_band(got.variation_ratio, want.variation_ratio) &&
         in_band(got.max_probability, want.max_probability) &&
         in_band(got.score, want.score);
}

struct Conn {
  int fd = -1;
  std::vector<unsigned char> out;
  std::size_t out_sent = 0;
  /// (end offset in `out`, record) for requests not yet fully written.
  std::deque<std::pair<std::size_t, std::uint32_t>> unsent;
  std::vector<unsigned char> in;
  std::size_t parsed = 0;
  int outstanding = 0;
  bool broken = false;
};

}  // namespace

std::uint64_t PhaseResult::count(Status status) const {
  return static_cast<std::uint64_t>(
      std::count_if(records.begin(), records.end(),
                    [&](const Record& r) { return r.status == status; }));
}

ResidencyModel::ResidencyModel(std::vector<std::size_t> footprint,
                               std::size_t budget)
    : footprint_(std::move(footprint)),
      last_used_(footprint_.size(), 0),
      budget_(budget) {}

bool ResidencyModel::use(int key) {
  if (key < 0) return false;  // unknown keys never load anything
  const auto k = static_cast<std::size_t>(key);
  const bool cold = last_used_[k] == 0;
  last_used_[k] = ++clock_;
  if (!cold || budget_ == 0) return cold;
  resident_ += footprint_[k];
  while (resident_ > budget_) {
    std::size_t victim = k;
    for (std::size_t i = 0; i < last_used_.size(); ++i) {
      if (last_used_[i] != 0 && i != k &&
          (victim == k || last_used_[i] < last_used_[victim])) {
        victim = i;
      }
    }
    if (victim == k) break;  // only the new key is left
    resident_ -= footprint_[victim];
    last_used_[victim] = 0;
  }
  return true;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

std::unique_ptr<Answer> make_answer(const hmd::core::UntrustedHmd& hmd,
                                    const Shape& shape) {
  hmd::Matrix x(shape.rows, shape.cols);
  std::memcpy(x.row_ptr(0), shape.features,
              sizeof(double) * shape.rows * shape.cols);
  hmd::api::ScoreRequest request;
  request.x = &x;
  request.outputs = shape.outputs;
  request.accuracy = hmd::core::Accuracy::kExact;
  auto answer = std::make_unique<Answer>();
  hmd.score(request, answer->columns);
  wire::append_result(answer->payload, 0, shape.outputs, answer->columns, 0,
                      shape.rows, shape.accuracy);
  answer->payload.erase(answer->payload.begin(),
                        answer->payload.begin() + wire::kHeaderBytes);
  return answer;
}

bool verify_response(const unsigned char* bytes, std::size_t size,
                     const Shape& shape, std::uint32_t request_id,
                     std::string& why, std::uint64_t& zero_day_flagged) {
  wire::Frame frame;
  try {
    if (wire::parse_frame(bytes, size, wire::kMaxPayloadBytes, frame) != size) {
      why = "truncated frame";
      return false;
    }
  } catch (const wire::WireError& error) {
    why = error.what();
    return false;
  }
  if (frame.type == wire::FrameType::kError) {
    const bool expected = shape.unknown_key &&
                          frame.error.code == wire::ErrorCode::kUnknownModel &&
                          frame.error.request_id == request_id;
    if (!expected) {
      why = "error frame " + std::string(wire::error_code_name(frame.error.code)) +
            " for " + shape.key + ": " + std::string(frame.error.detail);
    }
    return expected;
  }
  const wire::ResultView& result = frame.result;
  if (frame.type != wire::FrameType::kScoreResult || shape.unknown_key ||
      result.request_id != request_id || result.rows != shape.rows ||
      result.outputs != shape.outputs || result.accuracy != shape.accuracy) {
    why = "result header does not match the request for " + shape.key;
    return false;
  }
  const unsigned char* payload = bytes + wire::kHeaderBytes;
  const std::size_t payload_size = size - wire::kHeaderBytes;
  bool ok = false;
  if (shape.accuracy == hmd::core::Accuracy::kExact) {
    for (const Answer* answer : shape.answers) {
      ok = ok || (answer->payload.size() == payload_size &&
                  std::memcmp(answer->payload.data(), payload, payload_size) == 0);
    }
  } else {
    ScoreResult got;
    wire::unpack_result(result, got);
    for (const Answer* answer : shape.answers) {
      ok = ok || columns_in_band(got, answer->columns);
    }
  }
  if (!ok) {
    why = "response for " + shape.key + " matches no published version";
    return false;
  }
  if (shape.zero_day) {
    // kOutTrusted is the highest bit, so the trust flags are the last
    // `rows` bytes of the served payload.
    const unsigned char* trusted = bytes + size - shape.rows;
    for (std::uint32_t r = 0; r < shape.rows; ++r) {
      zero_day_flagged += trusted[r] == 0;
    }
  }
  return true;
}

PhaseResult run_phase(const Phase& phase, const std::vector<Shape>& shapes,
                      const std::vector<std::uint32_t>& sequence,
                      std::uint16_t port, ResidencyModel* residency) {
  const bool open_loop = phase.rate > 0.0;
  const std::int64_t horizon_ns =
      static_cast<std::int64_t>(phase.seconds * 1e9);
  const std::int64_t interval_ns =
      open_loop ? static_cast<std::int64_t>(1e9 / phase.rate) : 0;
  const std::uint64_t planned =
      open_loop ? static_cast<std::uint64_t>(phase.seconds * phase.rate) : 0;
  const std::int64_t drain_ns = 10'000'000'000;  // answers owed after the end

  PhaseResult result;
  result.records.reserve(open_loop ? planned : 1u << 16);
  std::vector<Conn> conns(static_cast<std::size_t>(phase.connections));
  for (Conn& c : conns) c.fd = connect_loopback(port);

  const auto start = SteadyClock::now();
  std::uint64_t responses = 0;
  bool stalled = phase.stall_ms <= 0.0;

  const auto enqueue = [&](Conn& c, std::int64_t due_ns) {
    const auto index = static_cast<std::uint32_t>(result.records.size());
    Record record;
    record.due_ns = due_ns;
    record.shape = sequence[index % sequence.size()];
    const Shape& shape = shapes[record.shape];
    if (residency != nullptr) record.cold = residency->use(shape.key_index);
    const auto encode_start = phase.trace ? SteadyClock::now() : start;
    wire::append_request(c.out, index + 1, shape.key, shape.outputs,
                         std::nullopt, shape.features, shape.rows, shape.cols,
                         shape.accuracy);
    if (phase.trace) record.encode_ns = static_cast<std::int32_t>(ns_since(encode_start));
    result.records.push_back(record);
    c.unsent.emplace_back(c.out.size(), index);
    ++c.outstanding;
  };

  const auto fail = [&](Record& record, const std::string& why) {
    record.status = Status::kFailed;
    if (result.first_failure.empty()) result.first_failure = why;
  };

  const auto flush = [&](Conn& c) {
    while (c.out_sent < c.out.size() && !c.broken) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_sent,
                               c.out.size() - c.out_sent,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        c.broken = true;
        break;
      }
      c.out_sent += static_cast<std::size_t>(n);
    }
    const std::int64_t now = ns_since(start);
    while (!c.unsent.empty() && c.unsent.front().first <= c.out_sent) {
      result.records[c.unsent.front().second].sent_ns = now;
      c.unsent.pop_front();
    }
    if (c.out_sent == c.out.size()) {
      c.out.clear();
      c.out_sent = 0;
    }
  };

  std::vector<unsigned char> chunk(256u << 10);
  const auto receive = [&](Conn& c) {
    if (c.broken) return;
    if (c.parsed > 0 && c.parsed * 2 >= c.in.size()) {
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<long>(c.parsed));
      c.parsed = 0;
    }
    const ssize_t n = ::recv(c.fd, chunk.data(), chunk.size(), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      c.broken = true;
      return;
    }
    if (n < 0) return;
    c.in.insert(c.in.end(), chunk.data(), chunk.data() + n);
    wire::Frame frame;
    while (true) {
      std::size_t length = 0;
      try {
        length = wire::parse_frame(c.in.data() + c.parsed, c.in.size() - c.parsed,
                                   wire::kMaxPayloadBytes, frame);
      } catch (const wire::WireError&) {
        c.broken = true;  // the stream offset is lost
        return;
      }
      if (length == 0) break;
      unsigned char* bytes = c.in.data() + c.parsed;
      c.parsed += length;
      const std::int64_t now = ns_since(start);
      const std::uint32_t id = frame.type == wire::FrameType::kError
                                   ? frame.error.request_id
                                   : frame.result.request_id;
      if (id == 0 || id > result.records.size() ||
          result.records[id - 1].status != Status::kPending) {
        c.broken = true;  // an answer to nothing we asked
        return;
      }
      Record& record = result.records[id - 1];
      record.done_ns = now;
      --c.outstanding;
      ++responses;
      if (responses == phase.corrupt_nth) {
        // Planted: the last column byte of a result, the code of an error.
        bytes[frame.type == wire::FrameType::kError ? wire::kHeaderBytes
                                                    : length - 1] ^= 0x5a;
      }
      std::string why;
      std::uint64_t flagged = 0;
      const Shape& shape = shapes[record.shape];
      const bool ok = verify_response(bytes, length, shape, id, why, flagged);
      if (phase.trace) {
        record.verify_ns = static_cast<std::int32_t>(ns_since(start) - now);
      }
      if (ok) {
        record.status = Status::kOk;
        result.rows_ok += shape.rows;
        if (shape.zero_day) {
          result.zero_day_rows += shape.rows;
          result.zero_day_flagged += flagged;
        }
      } else {
        fail(record, why);
      }
      if (!open_loop && now < horizon_ns) enqueue(c, now);
    }
  };

  if (!open_loop) {
    for (Conn& c : conns) {
      for (int p = 0; p < phase.pipeline; ++p) enqueue(c, 0);
    }
  }
  // Busy-poll: the generator owns its pinned CPU. A sleeping generator
  // would add its own wake-up latency (tens of microseconds on a virtual
  // CPU, and noisy) to every response it times.
  std::uint64_t next = 0;
  while (true) {
    const std::int64_t now = ns_since(start);
    if (open_loop) {
      while (next < planned && static_cast<std::int64_t>(next) * interval_ns <= now) {
        if (!stalled && next >= planned / 3) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(phase.stall_ms));
          stalled = true;
        }
        enqueue(conns[next % conns.size()],
                static_cast<std::int64_t>(next) * interval_ns);
        ++next;
      }
    } else if (!stalled && now >= horizon_ns / 3) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(phase.stall_ms));
      stalled = true;
    }
    int waiting = 0;
    bool any_alive = false;
    for (Conn& c : conns) {
      flush(c);
      receive(c);
      waiting += c.broken ? 0 : c.outstanding;
      any_alive = any_alive || !c.broken;
    }
    const bool issuing = open_loop ? next < planned : now < horizon_ns;
    if (!issuing && waiting == 0) break;
    if (!any_alive || now > horizon_ns + drain_ns) break;
  }
  for (Conn& c : conns) ::close(c.fd);
  std::int64_t last = 0;
  for (Record& record : result.records) {
    if (record.status == Status::kPending) {
      fail(record, "no answer (transport failure or timeout)");
    }
    last = std::max(last, record.done_ns);
  }
  result.seconds = static_cast<double>(last) * 1e-9;
  return result;
}

}  // namespace perfbench
