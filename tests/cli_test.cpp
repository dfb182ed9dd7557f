// End-to-end tests of the scnet_cli binary: build | verify | analyze |
// count pipelines through real process invocations.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#ifndef SCNET_CLI_PATH
#error "SCNET_CLI_PATH must be defined by the build"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

// Runs a shell command line and collects its stdout.
CommandResult run_shell(const std::string& line) {
  CommandResult result;
  FILE* pipe = popen(line.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buf{};
  while (fgets(buf.data(), buf.size(), pipe) != nullptr) {
    result.output += buf.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

CommandResult run_command(const std::string& cmd) {
  return run_shell(cmd + " 2>&1");
}

// Like run_command, but keeps stderr apart so a test can check that
// stdout stayed empty.
struct SplitResult {
  CommandResult stdout_part;
  std::string err;
};

SplitResult run_split(const std::string& cmd, const std::string& err_path) {
  SplitResult result{run_shell("(" + cmd + ") 2>" + err_path), {}};
  std::ifstream err(err_path);
  std::stringstream text;
  text << err.rdbuf();
  result.err = text.str();
  std::remove(err_path.c_str());
  return result;
}

const std::string kCli = SCNET_CLI_PATH;

TEST(Cli, BuildEmitsParsableText) {
  const auto r = run_command(kCli + " build K 2x3");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("scnet 1"), std::string::npos);
  EXPECT_NE(r.output.find("width 6"), std::string::npos);
  EXPECT_NE(r.output.find("gate 0 1 2 3 4 5"), std::string::npos);
}

TEST(Cli, BuildVerifyPipelinePasses) {
  const auto r =
      run_command(kCli + " build L 2x3x2 | " + kCli + " verify");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("counting: PASS"), std::string::npos);
  EXPECT_NE(r.output.find("sorting (0-1 exhaustive): PASS"),
            std::string::npos);
}

TEST(Cli, BubbleFailsVerificationWithWitness) {
  const auto r =
      run_command(kCli + " build bubble 4 | " + kCli + " verify");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("counting: FAIL"), std::string::npos);
  EXPECT_NE(r.output.find("witness"), std::string::npos);
}

TEST(Cli, CountAppliesLoad) {
  const auto r = run_command(kCli + " build K 2x2 | " + kCli +
                             " count 5,0,0,0");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("2 1 1 1"), std::string::npos);
}

TEST(Cli, SortPlanEngineMatchesInterpreter) {
  const std::string build = kCli + " build K 2x2";
  const auto interp = run_command(build + " | " + kCli + " sort 3,1,4,1");
  const auto plan =
      run_command(build + " | " + kCli + " sort --engine=plan 3,1,4,1");
  EXPECT_EQ(interp.exit_code, 0);
  EXPECT_EQ(plan.exit_code, 0);
  EXPECT_EQ(interp.output, plan.output);
  EXPECT_NE(plan.output.find("4 3 1 1"), std::string::npos);
}

TEST(Cli, SortBatchModeReportsThroughputAndCrossCheck) {
  const auto r = run_command(kCli + " build K 4x4 | " + kCli +
                             " sort --engine=plan --batch 500 --seed 7");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("sorted 500 vectors"), std::string::npos);
  EXPECT_NE(r.output.find("cross-check vs interpreter: PASS"),
            std::string::npos);
}

TEST(Cli, SortBatchRequiresPlanEngine) {
  const auto r = run_command(kCli + " build K 2x2 | " + kCli +
                             " sort --batch 10");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--batch requires --engine=plan"),
            std::string::npos);
}

TEST(Cli, SortRejectsUnknownEngineListingValidNames) {
  const auto r = run_command(kCli + " build K 2x2 | " + kCli +
                             " sort --engine=warp 3,1,4,1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown engine 'warp'"), std::string::npos);
  EXPECT_NE(r.output.find("interp|plan|auto|scalar|batch|threaded"),
            std::string::npos);
}

TEST(Cli, SortRejectsRemovedSimdEngine) {
  const auto r = run_command(kCli + " build K 2x2 | " + kCli +
                             " sort --engine=simd 3,1,4,1");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown engine 'simd'"), std::string::npos);
  EXPECT_NE(r.output.find("interp|plan|auto|scalar|batch|threaded"),
            std::string::npos);
}

TEST(Cli, SortForcedBackendsMatchInterpreter) {
  const std::string build = kCli + " build K 2x2";
  const auto interp = run_command(build + " | " + kCli + " sort 3,1,4,1");
  ASSERT_EQ(interp.exit_code, 0);
  for (const std::string engine :
       {"auto", "scalar", "batch", "threaded"}) {
    const auto r = run_command(build + " | " + kCli + " sort --engine=" +
                               engine + " 3,1,4,1");
    EXPECT_EQ(r.exit_code, 0) << engine;
    EXPECT_EQ(r.output, interp.output) << engine;
  }
}

TEST(Cli, AnalyzeReportsStructure) {
  const auto r =
      run_command(kCli + " build R 4 4 | " + kCli + " analyze");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("width=16"), std::string::npos);
  EXPECT_NE(r.output.find("contention:"), std::string::npos);
}

TEST(Cli, ExportDotEmitsClusteredGraph) {
  const auto r = run_command(kCli + " build K 2x3 | " + kCli +
                             " export --dot");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("digraph \"network\""), std::string::npos);
  EXPECT_NE(r.output.find("subgraph cluster_l0"), std::string::npos);
  EXPECT_NE(r.output.find("->"), std::string::npos);
}

TEST(Cli, ExportContentionOverlayHeatColorsGates) {
  // The acceptance pipeline: build an L network, trace it, render the heat
  // overlay — one command.
  const auto r = run_command(kCli + " build L 2x3x2 | " + kCli +
                             " export --dot --overlay=contention "
                             "--tokens 500 --title heatmap");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("digraph \"heatmap\""), std::string::npos);
  EXPECT_NE(r.output.find("subgraph cluster_l"), std::string::npos);
  EXPECT_NE(r.output.find("/oranges9/"), std::string::npos);
  EXPECT_NE(r.output.find("overlay: 500 tokens traced"), std::string::npos);
}

TEST(Cli, ExportRejectsUnknownOverlayAndMissingFormat) {
  const auto bad = run_command(kCli + " build K 2x2 | " + kCli +
                               " export --dot --overlay=wat");
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.output.find("valid: none|contention)"), std::string::npos);
  const auto placement = run_command(kCli + " build K 2x2 | " + kCli +
                                     " export --dot --overlay=placement");
  EXPECT_EQ(placement.exit_code, 2);
  const auto none = run_command(kCli + " build K 2x2 | " + kCli + " export");
  EXPECT_EQ(none.exit_code, 2);
}

TEST(Cli, SvgIsEmitted) {
  const auto r = run_command(kCli + " build bitonic 8 | " + kCli + " svg");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("<svg"), std::string::npos);
}

TEST(Cli, OptimizeReportsPassStatsAndKeepsMinimalNetworkIntact) {
  // bubble(6) has no 0-1-redundant comparators, so the default pipeline
  // keeps all 15 gates — but still reports per-pass provenance. (It sorts
  // but does not count, so verify exits 1 exactly as for the raw network.)
  // Subshell so the middle command's stderr (the pass stats) is captured
  // alongside verify's stdout.
  const auto r = run_command("( " + kCli + " build bubble 6 | " + kCli +
                             " optimize --passes=default | " + kCli +
                             " verify )");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("relayer"), std::string::npos);
  EXPECT_NE(r.output.find("zero-one-elim"), std::string::npos);
  EXPECT_NE(r.output.find("total: gates 15 -> 15"), std::string::npos);
  EXPECT_NE(r.output.find("sorting (0-1 exhaustive): PASS"),
            std::string::npos);
}

TEST(Cli, OptimizeBalancerSemanticsPreservesCounting) {
  const auto r = run_command(kCli + " build K 2x3 | " + kCli +
                             " optimize --semantics=balancer | " + kCli +
                             " verify");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("counting: PASS"), std::string::npos);
}

TEST(Cli, SortAcceptsPassesFlag) {
  const std::string build = kCli + " build batcher 8";
  const auto plain = run_command(build + " | " + kCli + " sort 5,3,8,1,9,2,7,4");
  EXPECT_EQ(plain.exit_code, 0);
  for (const char* level : {"none", "default"}) {
    const auto opt = run_command(build + " | " + kCli +
                                 " sort --engine=plan --passes=" + level +
                                 " 5,3,8,1,9,2,7,4");
    EXPECT_EQ(opt.exit_code, 0) << level << ": " << opt.output;
    EXPECT_EQ(plain.output, opt.output) << level;
  }
  const auto unknown = run_command(build + " | " + kCli +
                                   " sort --engine=plan --passes=aggressive "
                                   "5,3,8,1,9,2,7,4");
  EXPECT_EQ(unknown.exit_code, 2) << unknown.output;
}

TEST(Cli, BuildStatsReportsConstructionAndModuleCache) {
  const auto r = run_command(kCli + " build --stats L 3x4x3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The network still goes to stdout, unchanged by --stats.
  EXPECT_NE(r.output.find("scnet 1"), std::string::npos);
  EXPECT_NE(r.output.find("width 36"), std::string::npos);
  // Pinned stats shape: one build line, then the cache report.
  EXPECT_NE(r.output.find("build: L width 36 gates "), std::string::npos);
  EXPECT_NE(r.output.find(" depth "), std::string::npos);
  EXPECT_NE(r.output.find(" ms\n"), std::string::npos);
  EXPECT_NE(r.output.find("module-cache: hits "), std::string::npos);
  EXPECT_NE(r.output.find(" misses "), std::string::npos);
  EXPECT_NE(r.output.find(" entries "), std::string::npos);
  EXPECT_NE(r.output.find(" bytes "), std::string::npos);
  EXPECT_NE(r.output.find(" hit-rate "), std::string::npos);
  EXPECT_NE(r.output.find("plan-cache: hits "), std::string::npos);
}

TEST(Cli, BuildWithoutStatsStaysQuiet) {
  const auto r = run_command(kCli + " build L 2x3");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output.find("module-cache:"), std::string::npos);
  EXPECT_EQ(r.output.find("build:"), std::string::npos);
}

TEST(Cli, OptimizeStatsReportsBothCachesInOneReport) {
  const auto r = run_command(kCli + " build K 2x3 | " + kCli +
                             " optimize --stats");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // Pass provenance (the pre-existing report) is still there...
  EXPECT_NE(r.output.find("pipeline "), std::string::npos);
  EXPECT_NE(r.output.find("total: gates "), std::string::npos);
  // ...followed by the unified cache report, module cache first.
  const auto module_pos = r.output.find("module-cache: hits ");
  const auto plan_pos = r.output.find("plan-cache: hits ");
  ASSERT_NE(module_pos, std::string::npos);
  ASSERT_NE(plan_pos, std::string::npos);
  EXPECT_LT(module_pos, plan_pos);
  EXPECT_NE(r.output.find(" evictions "), std::string::npos);
  EXPECT_NE(r.output.find(" capacity "), std::string::npos);
  // optimize --stats routes the pipeline through the shared plan cache, so
  // this fresh process records exactly one plan compilation.
  EXPECT_NE(r.output.find("plan-cache: hits 0 misses 1"), std::string::npos);
}

TEST(Cli, MetricsDumpsRegistrySortedWithCacheMetricsAlwaysPresent) {
  const auto r = run_command(kCli + " build --metrics --stats K 2x3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The pinned --stats cache report is unchanged by --metrics...
  EXPECT_NE(r.output.find("module-cache: hits "), std::string::npos);
  // ...and the registry dump follows: one "  name = value" line per
  // metric, sorted. The cache metrics are live in every build
  // (SCNET_OBS only gates the hot-path macros).
  const auto metrics_pos = r.output.find("metrics:\n");
  ASSERT_NE(metrics_pos, std::string::npos);
  const auto module_pos = r.output.find("  module_cache.hits = ");
  const auto plan_pos = r.output.find("  plan_cache.capacity = 64\n");
  ASSERT_NE(module_pos, std::string::npos);
  ASSERT_NE(plan_pos, std::string::npos);
  EXPECT_LT(metrics_pos, module_pos);
  EXPECT_LT(module_pos, plan_pos);  // name-sorted
  EXPECT_NE(r.output.find("  plan_cache.misses = 0"), std::string::npos);
}

TEST(Cli, MetricsSeesEngineAndPassCountersWhenCompiledIn) {
  const auto r = run_command(kCli + " build K 4x4 | " + kCli +
                             " sort --metrics --engine=plan --batch 64");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("metrics:\n"), std::string::npos);
  EXPECT_NE(r.output.find("  plan_cache.misses = 1"), std::string::npos);
#if defined(SCNET_OBS) && SCNET_OBS
  // Hot-path counters advance only when the macros are compiled in.
  // sort --batch runs the batch kernel once plus the scalar cross-check.
  EXPECT_NE(r.output.find("  engine.run.batch = 1"), std::string::npos);
  EXPECT_NE(r.output.find("  opt.pipeline.runs = 1"), std::string::npos);
  EXPECT_NE(r.output.find("  engine.batch.lanes = count 1 mean 64.0"),
            std::string::npos);
#endif
}

TEST(Cli, SaturateVerifiesAndReportsService) {
  const auto r = run_command(
      kCli + " saturate --shards 2 --threads 4 --tokens 500");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("saturate: shards 2 width 16 threads 4 "
                          "tokens 2000 schedule uniform\n"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("step property: PASS"), std::string::npos);
  EXPECT_NE(r.output.find("linearity: PASS"), std::string::npos);
}

TEST(Cli, SaturateSyncModeAcceptsEverySchedule) {
  for (const char* schedule :
       {"uniform", "bursty", "skewed", "adversarial"}) {
    const auto r = run_command(kCli +
                               " saturate --shards 2 --threads 2 "
                               "--tokens 500 --schedule " +
                               schedule);
    EXPECT_EQ(r.exit_code, 0) << schedule << ": " << r.output;
    EXPECT_NE(r.output.find(std::string("schedule ") + schedule + "\n"),
              std::string::npos);
    EXPECT_NE(r.output.find("linearity: PASS"), std::string::npos);
  }
}

TEST(Cli, NumbersMustBeWholeUnsignedDecimals) {
  // Signs, suffixes, empty or sub-2 factors and widths whose product
  // overflows std::size_t are refused with exit 2 before anything is
  // built: a "<command> needs" message and nothing on stdout.
  const std::string net = kCli + " build K 2x2 | ";
  const std::pair<const char*, std::string> cases[] = {
      {"build", kCli + " build L 4294967296x4294967296"},
      {"build", kCli + " build K 4294967296x4294967296"},
      {"build", kCli + " build K 2x-1"},
      {"build", kCli + " build K 2x4x"},
      {"build", kCli + " build K 2xx4"},
      {"build", kCli + " build L 2x1"},
      {"build", kCli + " build K 2xq"},
      {"build", kCli + " build R -1 3"},
      {"build", kCli + " build R 3 4x"},
      {"build", kCli + " build R 4294967296 4294967296"},
      {"build", kCli + " build batcher -5"},
      {"build", kCli + " build bubble 1e3"},
      {"build", kCli + " build bitonic -16"},
      {"build", kCli + " build periodic 8x"},
      {"saturate", kCli + " saturate --factors 2x-1"},
      {"saturate", kCli + " saturate --factors 2x2x"},
      {"sort", net + kCli + " sort --engine=plan --batch -1"},
      {"sort", net + kCli + " sort --engine=plan --batch 4x"},
      {"sort", net + kCli + " sort --engine=plan --batch 4 --seed -1"},
      {"export", net + kCli + " export --dot --overlay=contention --tokens -1"},
      {"export", net + kCli + " export --dot --tokens 10k"},
  };
  const std::string err_path =
      testing::TempDir() + "scnet_cli_test_numbers_stderr.txt";
  for (const auto& [command, cmd] : cases) {
    const SplitResult r = run_split(cmd, err_path);
    EXPECT_EQ(r.stdout_part.exit_code, 2) << cmd << ": " << r.err;
    EXPECT_NE(r.err.find(std::string(command) + " needs "),
              std::string::npos)
        << cmd << ": " << r.err;
    EXPECT_EQ(r.stdout_part.output, "") << cmd;
  }
}

TEST(Cli, SaturateRejectsUnknownSchedule) {
  const auto r = run_command(kCli + " saturate --schedule zipf");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("unknown schedule"), std::string::npos);
}

TEST(Cli, SaturateRejectsBadNumbers) {
  // Signs, suffixes, out-of-range counts and bad factors are refused with
  // exit 2 before any producer thread starts.
  for (const char* args : {"--threads -1", "--threads 4x", "--shards -1",
                           "--threads 1025", "--shards 0", "--tokens 1e3",
                           "--seed -5", "--factors 2x1"}) {
    const auto r = run_command(kCli + " saturate " + args);
    EXPECT_EQ(r.exit_code, 2) << args << ": " << r.output;
    EXPECT_NE(r.output.find("saturate needs "), std::string::npos)
        << args << ": " << r.output;
    EXPECT_EQ(r.output.find("saturate: shards"), std::string::npos) << args;
  }
}

TEST(Cli, MetricsIncludesPerShardServiceCounters) {
  // The pinned service.* registry section: total and per-shard token
  // counts in the home runtime's --metrics dump. 4 threads x 500 tokens
  // over 2 shards => 1000 each under round-robin dispatch.
  const auto r = run_command(
      kCli + " saturate --metrics --shards 2 --threads 4 --tokens 500");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("  service.tokens = 2000"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("  service.shard0.tokens = 1000"),
            std::string::npos);
  EXPECT_NE(r.output.find("  service.shard1.tokens = 1000"),
            std::string::npos);
}

TEST(Cli, TraceWritesChromeTraceFile) {
  const std::string path =
      testing::TempDir() + "scnet_cli_test_trace.json";
  std::remove(path.c_str());
  const auto r = run_command(kCli + " build K 4x4 | " + kCli +
                             " sort --trace " + path +
                             " --engine=plan --batch 16");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("trace: wrote " + path), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
#if defined(SCNET_OBS) && SCNET_OBS
  // Compiled-in builds record engine spans; compiled-out builds still
  // write a valid (empty) trace.
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
#endif
  std::remove(path.c_str());
}

TEST(Cli, TraceWriteFailureIsReportedAndFailsTheRun) {
  const std::string path =
      testing::TempDir() + "scnet_cli_no_such_dir/trace.json";
  const auto r = run_command(kCli + " build K 2x2 --trace " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("trace: failed to write " + path),
            std::string::npos);
  EXPECT_EQ(r.output.find("trace: wrote"), std::string::npos);
}

TEST(Cli, TraceWithoutFileExitsTwo) {
  const auto r = run_command(kCli + " build K 2x2 --trace");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--trace requires an output file"),
            std::string::npos);
}

TEST(Cli, BadUsageExitsTwo) {
  EXPECT_EQ(run_command(kCli + " frobnicate < /dev/null").exit_code, 2);
  EXPECT_EQ(run_command(kCli + " build K 1x3").exit_code, 2);
  EXPECT_EQ(run_command(kCli + " build bitonic 12").exit_code, 2);
}

TEST(Cli, UnknownCommandsPrintUsageWithoutReadingStdin) {
  // Both names are rejected before stdin is read: no "parse error".
  for (const std::string cmd : {"tune", "frobnicate"}) {
    const auto r = run_command(kCli + " " + cmd + " < /dev/null");
    EXPECT_EQ(r.exit_code, 2) << cmd;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << cmd;
    EXPECT_EQ(r.output.find("parse error"), std::string::npos) << cmd;
  }
}

TEST(Cli, SortAndSaturateRejectTheRemovedProfileFlag) {
  const auto sort = run_command(kCli + " build K 2x2 | " + kCli +
                                " sort --profile=x 3,1,4,1");
  EXPECT_EQ(sort.exit_code, 2) << sort.output;
  EXPECT_NE(sort.output.find("unknown sort option --profile=x"),
            std::string::npos);
  const auto saturate = run_command(kCli + " saturate --profile x");
  EXPECT_EQ(saturate.exit_code, 2) << saturate.output;
  EXPECT_NE(saturate.output.find("unknown saturate option --profile"),
            std::string::npos);
}

TEST(Cli, ParseErrorsAreReported) {
  const auto r = run_command("echo bogus | " + kCli + " info");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("parse error"), std::string::npos);
}

}  // namespace
