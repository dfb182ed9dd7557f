// Shared helpers for the benchmark/experiment binaries. Each binary prints
// the table/figure it regenerates (paper claim vs measured) before running
// its google-benchmark timings, so `./bench_x` reproduces the experiment
// end to end.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "net/network.h"
#include "seq/generators.h"

namespace scn::bench {

/// Wall time of one call, in seconds.
inline double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-`reps` wall time for `fn`, in seconds — the standard timing
/// primitive of every experiment preamble (min, not mean: the shortest
/// observed run is the least-perturbed one).
inline double best_time(const std::function<void()>& fn, int reps = 3) {
  double best = time_once(fn);
  for (int rep = 1; rep < reps; ++rep) best = std::min(best, time_once(fn));
  return best;
}

/// `n` random input vectors of `width` — the shared batch generator
/// (deterministic per seed, so every binary's inputs are reproducible).
inline std::vector<std::vector<Count>> random_inputs(std::size_t width,
                                                     std::size_t n,
                                                     std::uint64_t seed,
                                                     Count max_value = 1000) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<Count>> inputs;
  inputs.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    inputs.push_back(random_count_vector(rng, width, max_value));
  }
  return inputs;
}

inline void print_header(const char* experiment, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

inline void print_row_rule() {
  std::printf("--------------------------------------------------------------\n");
}

/// "PASS"/"FAIL" marker used in the printed tables.
inline const char* mark(bool ok) { return ok ? "ok " : "FAIL"; }

/// Machine-readable experiment report: the JSON shape every BENCH_*.json
/// shares — {"experiment": ..., "results": [ {...}, ... ], "pass": bool} —
/// with the comma/indent bookkeeping in one place. Usage:
///
///   bench::JsonReport report("BENCH_x.json", "x");
///   report.begin_row();
///   report.kv("network", "K(2^4)");
///   report.kv("tokens_per_sec", 1.2e6);
///   report.end_row();
///   report.finish(all_pass);           // writes tail + "wrote ..." line
///
/// A failed fopen degrades to a no-op (the printed table still appears);
/// finish() returns the pass flag either way so callers can exit on it.
class JsonReport {
 public:
  JsonReport(const char* path, const char* experiment) : path_(path) {
    file_ = std::fopen(path, "w");
    if (file_ != nullptr) {
      std::fprintf(file_, "{\n  \"experiment\": \"%s\",\n  \"results\": [\n",
                   experiment);
    }
  }
  ~JsonReport() {
    if (file_ != nullptr) finish(false);
  }
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void begin_row() {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s    {", rows_ == 0 ? "" : ",\n");
    ++rows_;
    first_kv_ = true;
  }
  void kv(const char* key, const char* value) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\"%s\": \"%s\"", sep(), key, value);
  }
  void kv(const char* key, const std::string& value) {
    kv(key, value.c_str());
  }
  void kv(const char* key, double value) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\"%s\": %.3f", sep(), key, value);
  }
  void kv(const char* key, std::uint64_t value) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\"%s\": %llu", sep(), key,
                 static_cast<unsigned long long>(value));
  }
  void kv(const char* key, bool value) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\"%s\": %s", sep(), key, value ? "true" : "false");
  }
  void end_row() {
    if (file_ == nullptr) return;
    std::fprintf(file_, "}");
  }

  /// Closes the report. Returns `pass` so `return report.finish(ok) ? 0 : 1`
  /// reads naturally in main().
  bool finish(bool pass) {
    if (file_ != nullptr) {
      std::fprintf(file_, "\n  ],\n  \"pass\": %s\n}\n",
                   pass ? "true" : "false");
      std::fclose(file_);
      file_ = nullptr;
      std::printf("\nwrote %s\n", path_.c_str());
    }
    return pass;
  }

 private:
  const char* sep() {
    const char* s = first_kv_ ? "" : ", ";
    first_kv_ = false;
    return s;
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::size_t rows_ = 0;
  bool first_kv_ = true;
};

}  // namespace scn::bench
