#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>

#include "api/detector_registry.h"
#include "common/checksum.h"
#include "common/mapped_file.h"
#include "core/model_artifact.h"
#include "jit/jit.h"
#include "serve/wire.h"
#include "simd/vmath.h"

namespace perfbench {

namespace wire = hmd::serve::wire;
using hmd::api::ScoreRequest;
using hmd::api::ScoreResult;

namespace {

using SteadyClock = std::chrono::steady_clock;

double ns_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Median over `rounds` of the mean ns per call of `fn`, each round
/// calling it until `round_ms` has passed.
double median_ns(const std::function<void()>& fn, int rounds = 7,
                 double round_ms = 4.0) {
  fn();  // warm caches and lazy state outside the timing
  std::vector<double> per_call;
  for (int r = 0; r < rounds; ++r) {
    std::size_t calls = 0;
    const auto start = SteadyClock::now();
    auto now = start;
    do {
      fn();
      ++calls;
      now = SteadyClock::now();
    } while (ns_between(start, now) < round_ms * 1e6);
    per_call.push_back(ns_between(start, now) / static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

/// Median of `rounds` single timings of `fn` (for one-shot work such as a
/// cold load, where the first call is the thing measured).
double median_once_ms(const std::function<void()>& fn, int rounds = 5) {
  std::vector<double> ms;
  for (int r = 0; r < rounds; ++r) {
    const auto start = SteadyClock::now();
    fn();
    ms.push_back(ns_between(start, SteadyClock::now()) * 1e-6);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

hmd::Matrix rows_of(const hmd::data::DatasetBundle& data, std::size_t rows) {
  const hmd::Matrix& x = data.test.X;
  hmd::Matrix out(rows, x.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(out.row_ptr(r), x.row_ptr(r % x.rows()),
                sizeof(double) * x.cols());
  }
  return out;
}

double score_ns_per_row(const hmd::core::TrustedHmd& hmd,
                        const hmd::data::DatasetBundle& data, std::size_t rows,
                        hmd::api::OutputMask outputs,
                        hmd::core::Accuracy accuracy) {
  const hmd::Matrix x = rows_of(data, std::max<std::size_t>(rows, 1));
  ScoreRequest request;
  request.x = &x;
  request.outputs = outputs;
  request.accuracy = accuracy;
  ScoreResult result;
  return median_ns([&] { hmd.score(request, result); }) /
         static_cast<double>(x.rows());
}

struct Family {
  const char* label;
  const char* file;
  bool hpc;
  hmd::api::OutputMask outputs;
  hmd::core::Accuracy accuracy;
};

const Family kFamilies[] = {
    {"dvfs_rf", "dvfs_rf", false, hmd::api::kDetectionOutputs,
     hmd::core::Accuracy::kExact},
    {"dvfs_lr", "dvfs_lr", false, hmd::api::kDetectionOutputs,
     hmd::core::Accuracy::kExact},
    {"dvfs_svm", "dvfs_svm", false, hmd::api::kDetectionOutputs,
     hmd::core::Accuracy::kExact},
    {"hpc_rf", "hpc_rf", true, hmd::api::kEstimateOutputs,
     hmd::core::Accuracy::kExact},
    {"hpc_lr_fast", "hpc_lr", true, hmd::api::kEstimateOutputs,
     hmd::core::Accuracy::kFast},
    {"hpc_svm_fast", "hpc_svm", true, hmd::api::kEstimateOutputs,
     hmd::core::Accuracy::kFast},
};

}  // namespace

std::map<std::string, double> time_layers(const Workload& w,
                                          const FixtureData& data,
                                          const std::string& fixtures,
                                          const std::string& fleet_dir,
                                          int server_threads,
                                          const Observed& observed) {
  std::map<std::string, double> m;
  hmd::jit::set_policy(hmd::jit::Policy::kAuto);
  const hmd::data::DatasetBundle& dvfs = data.dvfs;
  const hmd::data::DatasetBundle& hpc = data.hpc;

  // serve::wire — decode / encode per frame over the workload's mix.
  {
    const std::size_t n = std::min<std::size_t>(w.sequence.size(), 4096);
    std::vector<unsigned char> requests;
    std::vector<unsigned char> results;
    for (std::size_t i = 0; i < n; ++i) {
      const Shape& s = w.shapes[w.sequence[i]];
      wire::append_request(requests, static_cast<std::uint32_t>(i + 1), s.key,
                           s.outputs, std::nullopt, s.features, s.rows, s.cols,
                           s.accuracy);
    }
    std::size_t result_frames = 0;
    const auto encode_all = [&] {
      results.clear();
      result_frames = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Shape& s = w.shapes[w.sequence[i]];
        if (s.answers.empty()) continue;
        wire::append_result(results, static_cast<std::uint32_t>(i + 1),
                            s.outputs, s.answers.front()->columns, 0, s.rows,
                            s.accuracy);
        ++result_frames;
      }
    };
    wire::Frame frame;
    m["wire.decode_ns"] = median_ns([&] {
                            std::size_t at = 0;
                            while (at < requests.size()) {
                              at += wire::parse_frame(
                                  requests.data() + at, requests.size() - at,
                                  wire::kMaxPayloadBytes, frame);
                            }
                          }) /
                          static_cast<double>(n);
    m["wire.encode_ns"] =
        median_ns(encode_all) / static_cast<double>(std::max<std::size_t>(result_frames, 1));
    m["wire.request_bytes"] =
        static_cast<double>(requests.size()) / static_cast<double>(n);
    m["wire.result_bytes"] = static_cast<double>(results.size()) /
                             static_cast<double>(std::max<std::size_t>(result_frames, 1));
  }

  // api score() — per family at 4 rows, the observed batch, 256 rows.
  const auto batch_rows = static_cast<std::size_t>(
      std::max(1.0, observed.mean_batch_rows + 0.5));
  for (const Family& f : kFamilies) {
    const std::string path = fixtures + "/" + f.file + ".hmdf";
    const auto hmd = hmd::core::load_model(path, server_threads);
    const hmd::data::DatasetBundle& rows = f.hpc ? hpc : dvfs;
    const std::string prefix = std::string("score.") + f.label + ".r";
    m[prefix + "4_ns_per_row"] =
        score_ns_per_row(hmd, rows, 4, f.outputs, f.accuracy);
    m[prefix + "batch_ns_per_row"] =
        score_ns_per_row(hmd, rows, batch_rows, f.outputs, f.accuracy);
    m[prefix + "256_ns_per_row"] =
        score_ns_per_row(hmd, rows, 256, f.outputs, f.accuracy);
  }

  // api registry — the workload's own key set (and budget).
  {
    hmd::fleet::FleetOptions options;
    options.residency_budget_bytes = w.residency_budget;
    hmd::api::DetectorRegistry registry(server_threads,
                                        hmd::core::LoadMode::kMmap, options);
    for (std::size_t k = 0; k < w.keys.size(); ++k) {
      registry.add(w.keys[k], fleet_dir.empty()
                                  ? w.sources[w.key_source[k]]->path
                                  : fleet_dir + "/" + w.keys[k] + ".hmdf");
    }
    std::vector<std::string> hot;
    for (const std::uint32_t s : w.hot_shapes) hot.push_back(w.shapes[s].key);
    for (const std::string& key : hot) registry.get(key);
    std::size_t next = 0;
    m["registry.get_hit_ns"] = median_ns([&] {
      registry.get(hot[next++ % hot.size()]);
    });
    m["registry.unknown_reject_ns"] =
        median_ns([&] { registry.try_get("ghost_key_never_registered"); });
    m["registry.refresh_ms"] = median_once_ms([&] { registry.refresh(); });
  }
  for (const auto& [label, file] :
       std::vector<std::pair<std::string, std::string>>{
           {"rf_stump", "dvfs_rf"}, {"linear", "dvfs_lr"},
           {"rf_deep", "mid_a"}}) {
    m["registry.cold_get_ms." + label] = median_once_ms([&] {
      hmd::api::DetectorRegistry registry(server_threads,
                                          hmd::core::LoadMode::kMmap);
      registry.add("cold", fixtures + "/" + file + ".hmdf");
      registry.get("cold");
    });
  }

  // core artifacts — the workload's distinct artifacts, JIT policy off so
  // a load never includes a compile; the first batch after a load and
  // the compile are timed on their own.
  hmd::jit::set_policy(hmd::jit::Policy::kOff);
  double map_ms = 0, checksum_ms = 0, load_ms = 0, first_ms = 0;
  const Source* deepest = nullptr;
  for (const auto& s : w.sources) {
    map_ms += median_once_ms([&] {
      const auto file = hmd::io::MappedFile::map(s->path);
      const auto* bytes = reinterpret_cast<const unsigned char*>(file.data());
      unsigned char sink = 0;
      for (std::size_t i = 0; i < file.size(); i += 4096) sink ^= bytes[i];
      volatile unsigned char keep = sink;
      (void)keep;
    });
    const auto file = hmd::io::MappedFile::map(s->path);
    checksum_ms += median_once_ms([&] {
      volatile std::uint64_t keep = hmd::io::xxhash64(file.data(), file.size());
      (void)keep;
    });
    load_ms += median_once_ms(
        [&] { hmd::core::load_model(s->path, server_threads); });
    const hmd::Matrix x = rows_of(*s->data, 4);
    std::vector<double> first;
    for (int r = 0; r < 5; ++r) {
      const auto hmd = hmd::core::load_model(s->path, server_threads);
      ScoreRequest request;
      request.x = &x;
      ScoreResult result;
      const auto start = SteadyClock::now();
      hmd.score(request, result);
      first.push_back(ns_between(start, SteadyClock::now()) * 1e-6);
    }
    std::sort(first.begin(), first.end());
    first_ms += first[first.size() / 2];
    if (s->hmd->engine().engine_id() == hmd::core::EngineId::kFlatForest &&
        (deepest == nullptr || s->hmd->flat_forest().n_nodes() >
                                   deepest->hmd->flat_forest().n_nodes())) {
      deepest = s.get();
    }
  }
  const double n_sources = static_cast<double>(w.sources.size());
  m["artifact.map_ms"] = map_ms / n_sources;
  m["artifact.checksum_ms"] = checksum_ms / n_sources;
  m["artifact.load_ms"] = load_ms / n_sources;
  m["artifact.first_batch_ms"] = first_ms / n_sources;

  // core engine (arena) and jit, on the workload's largest forest. The
  // JIT rows stay 0 when the auto policy would not compile it.
  m["engine.arena_ns_per_row"] = 0.0;
  m["jit.compile_ms"] = 0.0;
  m["jit.code_mib"] = 0.0;
  m["jit.ns_per_row"] = 0.0;
  if (deepest != nullptr) {
    const auto arena = hmd::core::load_model(deepest->path, server_threads);
    m["engine.arena_ns_per_row"] =
        score_ns_per_row(arena, *deepest->data, 256, hmd::api::kEstimateOutputs,
                         hmd::core::Accuracy::kExact);
    hmd::jit::set_policy(hmd::jit::Policy::kAuto);
    if (hmd::jit::should_compile(arena.flat_forest())) {
      std::size_t code_bytes = 0;
      m["jit.compile_ms"] = median_once_ms([&] {
        const auto program = hmd::jit::compile_forest(arena.flat_forest());
        code_bytes = program ? program->code_bytes() : 0;
      });
      m["jit.code_mib"] = static_cast<double>(code_bytes) / (1024.0 * 1024.0);
      const auto native = hmd::core::load_model(deepest->path, server_threads);
      m["jit.ns_per_row"] = score_ns_per_row(
          native, *deepest->data, 256, hmd::api::kEstimateOutputs,
          hmd::core::Accuracy::kExact);
    }
  }
  hmd::jit::set_policy(hmd::jit::Policy::kAuto);

  // simd — the vmath kernels at the resolved level.
  {
    const hmd::simd::VmathKernels& k = hmd::simd::kernels();
    std::vector<double> in(4096), out(4096);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = -8.0 + 16.0 * static_cast<double>(i) / 4096.0;
    }
    m["vmath.sigmoid_ns_per_elem"] =
        median_ns([&] { k.sigmoid_array(in.data(), out.data(), in.size()); }) /
        4096.0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = (static_cast<double>(i) + 0.5) / 4096.0;
    }
    m["vmath.entropy_ns_per_elem"] =
        median_ns([&] {
          k.binary_entropy_array(in.data(), out.data(), in.size());
        }) /
        4096.0;
  }

  // Trace split of one request's server time: self time of each layer
  // at the batch shapes the server reported, per request.
  {
    double decode = m["wire.decode_ns"], encode = m["wire.encode_ns"];
    double score = 0.0;
    std::size_t counted = 0;
    const std::size_t n = std::min<std::size_t>(w.sequence.size(), 256);
    std::map<const hmd::core::TrustedHmd*, double> per_row;
    for (std::size_t i = 0; i < n; ++i) {
      const Shape& s = w.shapes[w.sequence[i]];
      if (s.key_index < 0) continue;
      const Source& src = *w.sources[w.key_source[static_cast<std::size_t>(s.key_index)]];
      auto it = per_row.find(src.hmd.get());
      if (it == per_row.end()) {
        it = per_row.emplace(src.hmd.get(),
                             score_ns_per_row(*src.hmd, *src.data, batch_rows,
                                              s.outputs, s.accuracy))
                 .first;
      }
      score += it->second * static_cast<double>(s.rows);
      ++counted;
    }
    score /= static_cast<double>(std::max<std::size_t>(counted, 1));
    const double get = m["registry.get_hit_ns"] * observed.batches_per_request;
    m["trace.decode.self_us"] = decode * 1e-3;
    m["trace.registry_get.self_us"] = get * 1e-3;
    m["trace.score.self_us"] = score * 1e-3;
    m["trace.encode.self_us"] = encode * 1e-3;
    m["trace.unaccounted_us"] =
        observed.server_p50_us - (decode + get + score + encode) * 1e-3;
  }
  return m;
}

}  // namespace perfbench
