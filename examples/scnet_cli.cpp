// scnet_cli — command-line front end to the library.
//
//   scnet_cli build K 2x3x5            emit the network as scnet text
//   scnet_cli build L 2x3x5
//   scnet_cli build R 7 9
//   scnet_cli build bitonic 16 | batcher 24 | bubble 5 | periodic 8
//   scnet_cli info < net.scnet         summary + depth/width stats
//   scnet_cli verify < net.scnet       counting + sorting verification
//   scnet_cli dot < net.scnet          Graphviz
//   scnet_cli export --dot [--overlay={none|contention}]
//                      [--tokens N] [--title T] < net.scnet
//                                      clustered Graphviz with an optional
//                                      contention overlay: drives N tokens
//                                      through the concurrent sim and
//                                      heat-colors gates by measured visits
//   scnet_cli ascii < net.scnet        wire diagram
//   scnet_cli count t0,t1,... < net.scnet    quiescent outputs for a load
//   scnet_cli sort v0,v1,...  < net.scnet    comparator outputs for values
//   scnet_cli sort --engine=plan v0,...      same, via the compiled engine
//   scnet_cli sort --engine=plan --batch N   sort N random vectors through
//                                            engine::sort_batch
//   scnet_cli saturate [--shards N] [--threads N] [--tokens N]
//                      [--schedule KIND] [--factors 2x2x...]
//                      [--seed S]          drive the sharded counting
//                                            service and verify counter
//                                            linearity at quiescence
//   scnet_cli build --stats K 2x3x5    also report construction time and
//                                            module-cache and plan-cache
//                                            counters on stderr
//
// Global options (any command, stripped before dispatch):
//   --metrics            dump the full metrics registry to stderr on exit
//   --trace out.json     record spans and write a chrome://tracing file
//   --isolated           run the command in a fresh private Runtime (own
//                        module/plan caches and metric namespace) instead of
//                        the process-wide Runtime::shared()
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>

#include "api/high_level.h"
#include "baseline/batcher.h"
#include "baseline/bitonic.h"
#include "baseline/bubble.h"
#include "baseline/periodic.h"
#include "core/factorization.h"
#include "core/k_network.h"
#include "core/l_network.h"
#include "core/r_network.h"
#include "engine/backend.h"
#include "engine/batch_engine.h"
#include "engine/execution_plan.h"
#include "net/analyze.h"
#include "net/export.h"
#include "net/serialize.h"
#include "opt/plan_cache.h"
#include "perf/contention_model.h"
#include "perf/thread_pool.h"
#include "runtime/runtime.h"
#include "seq/generators.h"
#include "service/saturate.h"
#include "service/shard_manager.h"
#include "sim/comparator_sim.h"
#include "sim/concurrent_sim.h"
#include "sim/count_sim.h"
#include "sim/schedule.h"
#include "verify/checkers.h"
#include "verify/counting_verify.h"
#include "verify/sorting_verify.h"

namespace {

using namespace scn;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  scnet_cli build [--stats] {K|L} <p0xp1x...>\n"
               "  scnet_cli build [--stats] R <p> <q>\n"
               "  scnet_cli build {bitonic|periodic} <width=2^k>\n"
               "  scnet_cli build {batcher|bubble} <width>\n"
               "  scnet_cli {info|analyze|svg|verify|dot|ascii} < net.scnet\n"
               "  scnet_cli export --dot "
               "[--overlay={none|contention}] [--tokens N] "
               "[--title T] < net.scnet\n"
               "  scnet_cli count <t0,t1,...> < net.scnet\n"
               "  scnet_cli sort [--engine={interp|plan}] "
               "<v0,v1,...> < net.scnet\n"
               "  scnet_cli sort --engine=plan --batch <N> [--seed <s>] "
               "< net.scnet\n"
               "  scnet_cli saturate [--shards N] [--threads N] [--tokens N]"
               " [--schedule {uniform|bursty|skewed|adversarial}]"
               " [--factors p0xp1x...] [--seed S]\n"
               "global options (any command):\n"
               "  --metrics            dump the metrics registry to stderr\n"
               "  --trace <out.json>   write a chrome://tracing span file\n"
               "  --isolated           run in a fresh private Runtime\n");
  return 2;
}

// A whole unsigned decimal (digits only: no sign, no suffix, no overflow).
std::optional<std::uint64_t> parse_whole(std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

// parse_whole for a command's argument: on failure prints
// "<cmd> needs <what>, got '<text>'" so the caller can exit 2.
std::optional<std::uint64_t> whole_arg(const char* cmd, const char* what,
                                       std::string_view text) {
  const std::optional<std::uint64_t> value = parse_whole(text);
  if (!value) {
    std::fprintf(stderr, "%s needs %s as a whole unsigned number, got '%.*s'\n",
                 cmd, what, static_cast<int>(text.size()), text.data());
  }
  return value;
}

// "p0xp1x...": every item a whole number >= 2, the product within
// std::size_t. On failure prints "<cmd> needs ..." and returns nullopt.
std::optional<std::vector<std::size_t>> parse_factors(const char* cmd,
                                                      std::string_view s) {
  std::vector<std::size_t> out;
  std::size_t product = 1;
  for (std::size_t pos = 0;;) {
    const std::size_t x = std::min(s.find('x', pos), s.size());
    const std::optional<std::uint64_t> f = parse_whole(s.substr(pos, x - pos));
    if (!f || *f < 2 || *f > SIZE_MAX / product) {
      std::fprintf(stderr,
                   "%s needs factors p0xp1x... of whole numbers >= 2 whose "
                   "product fits std::size_t, got '%.*s'\n",
                   cmd, static_cast<int>(s.size()), s.data());
      return std::nullopt;
    }
    product *= static_cast<std::size_t>(*f);
    out.push_back(static_cast<std::size_t>(*f));
    if (x == s.size()) return out;
    pos = x + 1;
  }
}

std::vector<Count> parse_counts(const std::string& s) {
  std::vector<Count> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(std::strtoll(item.c_str(), nullptr, 10));
  }
  return out;
}

std::size_t log2_exact(std::size_t w) {
  std::size_t k = 0;
  while (k < 63 && (std::size_t{1} << k) < w) ++k;
  if ((std::size_t{1} << k) != w) {
    std::fprintf(stderr, "width %zu is not a power of two\n", w);
    std::exit(2);
  }
  return k;
}

// The pinned one-report cache section of `build --stats` (cli_test locks
// the field names and order).
void print_cache_stats(Runtime& rt) {
  const CacheStatsReport s = cache_stats(rt);
  const std::uint64_t module_total = s.module_hits + s.module_misses;
  std::fprintf(stderr,
               "module-cache: hits %llu misses %llu entries %zu bytes %zu "
               "hit-rate %.1f%%\n",
               static_cast<unsigned long long>(s.module_hits),
               static_cast<unsigned long long>(s.module_misses),
               s.module_entries, s.module_bytes,
               module_total == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(s.module_hits) /
                         static_cast<double>(module_total));
  std::fprintf(stderr,
               "plan-cache: hits %llu misses %llu evictions %llu entries %zu "
               "capacity %zu\n",
               static_cast<unsigned long long>(s.plan_hits),
               static_cast<unsigned long long>(s.plan_misses),
               static_cast<unsigned long long>(s.plan_evictions),
               s.plan_entries, s.plan_capacity);
}

int cmd_build(Runtime& rt, int argc, char** argv) {
  bool stats = false;
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.size() < 2) return usage();
  const std::string& kind = args[0];
  const auto t0 = std::chrono::steady_clock::now();
  Network net;
  if (kind == "K" || kind == "L") {
    const auto factors = parse_factors("build", args[1]);
    if (!factors) return 2;
    net = kind == "K" ? make_k_network(*factors, rt)
                      : make_l_network(*factors, rt);
  } else if (kind == "R") {
    if (args.size() < 3) return usage();
    const auto p = whole_arg("build", "R's p", args[1]);
    const auto q = whole_arg("build", "R's q", args[2]);
    if (!p || !q) return 2;
    if (*p < 2 || *q < 2 || *q > SIZE_MAX / *p) {
      std::fprintf(stderr,
                   "build needs R p q >= 2 with p*q within std::size_t\n");
      return 2;
    }
    net = make_r_network(*p, *q, rt);
  } else if (kind == "bitonic" || kind == "periodic" || kind == "batcher" ||
             kind == "bubble") {
    const auto w = whole_arg("build", "a width", args[1]);
    if (!w) return 2;
    if (kind == "bitonic") {
      net = make_bitonic_network(log2_exact(*w));
    } else if (kind == "periodic") {
      net = make_periodic_network(log2_exact(*w));
    } else if (kind == "batcher") {
      net = make_batcher_network(*w);
    } else {
      net = make_bubble_network(*w);
    }
  } else {
    return usage();
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (stats) {
    std::fprintf(
        stderr, "build: %s width %zu gates %zu depth %u in %.3f ms\n",
        kind.c_str(), net.width(), net.gate_count(), net.depth(),
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    print_cache_stats(rt);
  }
  std::fputs(serialize_network(net).c_str(), stdout);
  return 0;
}

int cmd_sort(Runtime& rt, const Network& net, int argc, char** argv) {
  std::string engine = "interp";
  std::size_t batch = 0;
  std::uint64_t seed = 42;
  std::string values_arg;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--engine=", 0) == 0) {
      engine = arg.substr(9);
    } else if ((arg == "--batch" || arg == "--seed") && i + 1 < argc) {
      const auto value = whole_arg("sort", arg.c_str(), argv[++i]);
      if (!value) return 2;
      if (arg == "--batch") {
        batch = static_cast<std::size_t>(*value);
      } else {
        seed = *value;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown sort option %s\n", arg.c_str());
      return 2;
    } else {
      values_arg = arg;
    }
  }
  // `interp` is the per-gate interpreter; `plan` is the compiled engine.
  if (engine != "interp" && engine != "plan") {
    std::fprintf(stderr, "unknown engine '%s' (valid: interp|plan)\n",
                 engine.c_str());
    return 2;
  }

  if (batch > 0) {
    // Batch demo/throughput mode: sort `batch` random vectors through the
    // compiled engine, cross-check one lane against the per-gate
    // interpreter, and report throughput.
    if (engine == "interp") {
      std::fprintf(stderr, "--batch requires --engine=plan\n");
      return 2;
    }
    const CachedPlan cached = rt.compiled(net);
    const ExecutionPlan& plan = *cached.plan;
    std::mt19937_64 rng(seed);
    std::vector<std::vector<Count>> inputs;
    inputs.reserve(batch);
    for (std::size_t j = 0; j < batch; ++j) {
      inputs.push_back(
          random_count_vector(rng, net.width(),
                              static_cast<Count>(17 * net.width())));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto outs = scn::engine::sort_batch(plan, inputs, rt);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const bool agree =
        outs.front() == comparator_output_counts(net, inputs.front());
    std::printf("sorted %zu vectors of width %zu in %.3f ms (%.0f vectors/s)\n",
                batch, net.width(), secs * 1e3,
                static_cast<double>(batch) / secs);
    std::printf("cross-check vs interpreter: %s\n", agree ? "PASS" : "FAIL");
    std::printf("lane 0: %s\n", format_sequence(outs.front()).c_str());
    return agree ? 0 : 1;
  }

  if (values_arg.empty()) return usage();
  const auto in = parse_counts(values_arg);
  if (in.size() != net.width()) {
    std::fprintf(stderr, "need %zu values\n", net.width());
    return 2;
  }
  std::vector<Count> out;
  if (engine == "interp") {
    out = comparator_output_counts(net, in);
  } else {
    const CachedPlan cached = rt.compiled(net);
    out = scn::engine::sorted_output(*cached.plan, in);
  }
  std::printf("%s\n", format_sequence(out).c_str());
  return 0;
}

// Clustered DOT export with an optional contention overlay. The overlay is
// self-contained: it drives --tokens tokens through the concurrent
// simulator (round-robin entry wires) with the visit probe on, so one
// pipeline — build | export — yields a heat-annotated figure.
int cmd_export(const Network& net, int argc, char** argv) {
  bool dot = false;
  std::string overlay = "none";
  std::uint64_t tokens = 1000;
  DotOptions opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dot") {
      dot = true;
    } else if (arg.rfind("--overlay=", 0) == 0) {
      overlay = arg.substr(10);
    } else if (arg == "--tokens" && i + 1 < argc) {
      const auto value = whole_arg("export", "--tokens", argv[++i]);
      if (!value) return 2;
      tokens = *value;
    } else if (arg == "--title" && i + 1 < argc) {
      opts.title = argv[++i];
    } else {
      std::fprintf(stderr, "unknown export option %s\n", arg.c_str());
      return 2;
    }
  }
  if (!dot) {
    std::fprintf(stderr, "export needs a format flag (--dot)\n");
    return 2;
  }
  // Overlay data must outlive the render call — DotOptions holds spans.
  std::vector<std::uint64_t> visits;
  if (overlay == "contention") {
    ConcurrentNetwork cnet(net);
    cnet.enable_visit_probe();
    for (std::uint64_t t = 0; t < tokens; ++t) {
      (void)cnet.traverse(static_cast<Wire>(t % net.width()));
    }
    visits = cnet.gate_visits();
    opts.overlay = DotOverlay::kContention;
    opts.gate_visits = visits;
    std::fprintf(stderr, "overlay: %llu tokens traced, hottest gate %llu\n",
                 static_cast<unsigned long long>(tokens),
                 static_cast<unsigned long long>(
                     visits.empty()
                         ? 0
                         : *std::max_element(visits.begin(), visits.end())));
  } else if (overlay != "none") {
    std::fprintf(stderr, "unknown overlay '%s' (valid: none|contention)\n",
                 overlay.c_str());
    return 2;
  }
  std::fputs(to_dot(net, opts).c_str(), stdout);
  return 0;
}

// Drives the sharded counting service (src/service/) and verifies the
// counter afterwards: producer threads call next_on() under the chosen
// schedule. The pinned report lines are "step property:" and
// "linearity:" (cli_test locks them); exit is non-zero when either fails.
int cmd_saturate(Runtime& rt, int argc, char** argv) {
  constexpr std::uint64_t kMaxParallel = 1024;  // --shards / --threads cap
  ShardManager::Options shard_opts;
  shard_opts.shards = 2;
  SaturationOptions sat;
  sat.threads = 4;
  sat.tokens_per_thread = 2000;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool numeric = arg == "--shards" || arg == "--threads" ||
                         arg == "--tokens" || arg == "--seed";
    if (numeric && i + 1 < argc) {
      const auto value = whole_arg("saturate", arg.c_str(), argv[++i]);
      if (!value) return 2;
      const bool bounded = arg == "--shards" || arg == "--threads";
      if (bounded && (*value == 0 || *value > kMaxParallel)) {
        std::fprintf(stderr, "saturate needs %s in [1, 1024], got '%s'\n",
                     arg.c_str(), argv[i]);
        return 2;
      }
      if (arg == "--shards") {
        shard_opts.shards = static_cast<std::size_t>(*value);
      } else if (arg == "--threads") {
        sat.threads = static_cast<std::size_t>(*value);
      } else if (arg == "--tokens") {
        sat.tokens_per_thread = *value;
      } else {
        sat.schedule.seed = *value;
      }
    } else if (arg == "--factors" && i + 1 < argc) {
      auto factors = parse_factors("saturate", argv[++i]);
      if (!factors) return 2;
      shard_opts.factors = std::move(*factors);
    } else if (arg == "--schedule" && i + 1 < argc) {
      const auto kind = parse_schedule(argv[++i]);
      if (!kind) {
        std::fprintf(stderr, "unknown schedule '%s'\n", argv[i]);
        return 2;
      }
      sat.schedule.kind = *kind;
    } else {
      std::fprintf(stderr, "unknown saturate option %s\n", arg.c_str());
      return 2;
    }
  }

  ShardManager service(shard_opts, rt);
  const SaturationResult res = run_saturation(service, sat);
  std::printf(
      "saturate: shards %zu width %zu threads %zu tokens %llu schedule %s\n",
      service.shard_count(), service.shard_width(), sat.threads,
      static_cast<unsigned long long>(res.tokens),
      to_string(sat.schedule.kind));

  bool step_ok = true;
  for (std::size_t j = 0; j < service.shard_count(); ++j) {
    step_ok = step_ok && has_step_property(service.shard_output_counts(j));
  }
  std::printf("step property: %s\n", step_ok ? "PASS" : "FAIL");
  std::printf("linearity: %s%s%s\n", res.linearity.ok ? "PASS" : "FAIL",
              res.linearity.ok ? "" : "  ",
              res.linearity.ok ? "" : res.linearity.detail.c_str());
  std::printf("throughput: %.0f tokens/s\n", res.tokens_per_second());
  return (step_ok && res.linearity.ok) ? 0 : 1;
}

Network read_network_or_die() {
  std::stringstream buf;
  buf << std::cin.rdbuf();
  ParseResult r = parse_network(buf.str());
  if (!r.network) {
    std::fprintf(stderr, "parse error: %s\n", r.error.c_str());
    std::exit(2);
  }
  return std::move(*r.network);
}

// The pinned --metrics report: every registry entry, one per line, sorted
// by name (the registry snapshot is name-sorted). Histograms print their
// count/mean and bucket-resolution quantiles instead of a raw value.
void print_metrics(Runtime& rt) {
  const obs::MetricsSnapshot snap = metrics_snapshot(rt);
  std::fprintf(stderr, "metrics:\n");
  for (const obs::MetricSample& s : snap) {
    if (s.kind == obs::MetricKind::kHistogram) {
      std::fprintf(stderr,
                   "  %s = count %llu mean %.1f p50<=%llu p99<=%llu\n",
                   s.name.c_str(),
                   static_cast<unsigned long long>(s.histogram.count),
                   s.histogram.mean(),
                   static_cast<unsigned long long>(
                       s.histogram.quantile_upper_bound(0.5)),
                   static_cast<unsigned long long>(
                       s.histogram.quantile_upper_bound(0.99)));
    } else {
      std::fprintf(stderr, "  %s = %llu\n", s.name.c_str(),
                   static_cast<unsigned long long>(s.value));
    }
  }
}

int dispatch(Runtime& rt, int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  if (cmd == "build") return cmd_build(rt, argc, argv);
  if (cmd == "saturate") return cmd_saturate(rt, argc, argv);

  // Every other command reads a network from stdin: reject unknown names
  // and missing arguments first, so a typo prints usage instead of
  // blocking on (or failing to parse) stdin.
  static constexpr std::string_view kNetworkCommands[] = {
      "info",    "dot",   "ascii", "svg",    "analyze",
      "verify",  "count", "sort",  "export"};
  if (std::find(std::begin(kNetworkCommands), std::end(kNetworkCommands),
                cmd) == std::end(kNetworkCommands)) {
    return usage();
  }
  if ((cmd == "count" || cmd == "sort") && argc < 3) return usage();

  const Network net = read_network_or_die();
  if (cmd == "info") {
    std::printf("%s\n", summarize(net).c_str());
    return 0;
  }
  if (cmd == "dot") {
    std::fputs(to_dot(net).c_str(), stdout);
    return 0;
  }
  if (cmd == "ascii") {
    std::fputs(to_ascii(net).c_str(), stdout);
    return 0;
  }
  if (cmd == "svg") {
    std::fputs(to_svg(net).c_str(), stdout);
    return 0;
  }
  if (cmd == "analyze") {
    std::printf("%s\n", summarize(net).c_str());
    std::printf("occupancy: %.3f\n", occupancy(net));
    const auto util = wire_utilization(net);
    std::printf("wire load min/mean/max: %zu/%.2f/%zu\n", util.min_gates,
                util.mean_gates, util.max_gates);
    std::printf("layers (gates@maxwidth):");
    for (const auto& p : layer_profiles(net)) {
      std::printf(" %zu@%zu", p.gates, p.max_gate_width);
    }
    std::printf("\n");
    const auto est = estimate_contention(net);
    std::printf("contention: hops/token %.2f, hottest gate %.4f\n",
                est.hops_per_token, est.hottest_gate_fraction);
    return 0;
  }
  if (cmd == "verify") {
    const CountingVerdict cv = verify_counting(net);
    std::printf("counting: %s", cv.ok ? "PASS" : "FAIL");
    if (!cv.ok) {
      std::printf("  witness [%s] -> [%s]",
                  format_sequence(cv.counterexample).c_str(),
                  format_sequence(cv.bad_output).c_str());
    }
    std::printf("\n");
    if (net.width() <= 22) {
      const SortingVerdict sv = verify_sorting_exhaustive(net);
      std::printf("sorting (0-1 exhaustive): %s\n", sv.ok ? "PASS" : "FAIL");
      return (cv.ok && sv.ok) ? 0 : 1;
    }
    const SortingVerdict sv = verify_sorting_sampled(net, 500);
    std::printf("sorting (sampled x500): %s\n", sv.ok ? "PASS" : "FAIL");
    return (cv.ok && sv.ok) ? 0 : 1;
  }
  if (cmd == "count") {
    const auto in = parse_counts(argv[2]);
    if (in.size() != net.width()) {
      std::fprintf(stderr, "need %zu counts\n", net.width());
      return 2;
    }
    std::printf("%s\n", format_sequence(output_counts(net, in)).c_str());
    return 0;
  }
  if (cmd == "sort") return cmd_sort(rt, net, argc, argv);
  if (cmd == "export") return cmd_export(net, argc, argv);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global observability options before command dispatch so each
  // command's own option parsing (which rejects unknown --flags) never
  // sees them.
  bool metrics = false;
  bool isolated = false;
  std::string trace_path;
  std::vector<char*> filtered;
  filtered.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
      continue;
    }
    if (std::strcmp(argv[i], "--isolated") == 0) {
      isolated = true;
      continue;
    }
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace requires an output file\n");
        return 2;
      }
      trace_path = argv[++i];
      continue;
    }
    filtered.push_back(argv[i]);
  }

  // --isolated runs the command against a fresh private Runtime: its own
  // module/plan caches and metric namespace, so --stats/--metrics report
  // exactly this invocation no matter what else the process did.
  std::optional<scn::Runtime> private_runtime;
  if (isolated) private_runtime.emplace();
  scn::Runtime& rt =
      private_runtime ? *private_runtime : scn::Runtime::shared();

  std::optional<scn::TraceSession> session;
  if (!trace_path.empty()) session.emplace(trace_path);
  int rc = dispatch(rt, static_cast<int>(filtered.size()), filtered.data());
  if (session) {
    // Finish explicitly (before the metrics report) so a failed write —
    // bad path, full disk — is reported and fails the run.
    if (session->finish()) {
      std::fprintf(stderr, "trace: wrote %s (%zu events)\n",
                   trace_path.c_str(),
                   scn::obs::Tracer::shared().event_count());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (metrics) print_metrics(rt);
  return rc;
}
