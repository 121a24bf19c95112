#pragma once
// Per-layer timings: the workload's requests replayed in-process through
// each module's public calls (serve::wire, api score() and registry,
// fleet via the registry, core artifacts and engines, jit, simd), timed
// from the benchmark's own code. Every figure is a median over repeated
// timed rounds.

#include <map>
#include <string>

#include "workload.h"

namespace perfbench {

/// What the socket run observed, needed to replay at its shapes.
struct Observed {
  double mean_batch_rows = 1.0;
  double batches_per_request = 1.0;
  double server_p50_us = 0.0;  ///< traced run, due-to-answer median
};

/// Time every layer for `w`; `fixtures` holds the per-family artifacts.
std::map<std::string, double> time_layers(const Workload& w,
                                          const FixtureData& data,
                                          const std::string& fixtures,
                                          const std::string& fleet_dir,
                                          int server_threads,
                                          const Observed& observed);

}  // namespace perfbench
