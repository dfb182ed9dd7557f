// The tune subsystem: profile store round-trips, corrupt-file and
// fingerprint-mismatch fallbacks, profile-vs-static select_backend()
// divergence, planner provenance, and the experiment manager's sweep
// mechanics (axis expansion, isolated measurement, failure capture).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/k_network.h"
#include "core/planner.h"
#include "tune/experiment.h"
#include "tune/profile.h"

namespace scn::tune {
namespace {

ProfileCell make_cell(NetworkKind kind, std::vector<std::size_t> factors,
                      EngineBackend backend, std::size_t lanes, double vps) {
  ProfileCell cell;
  cell.kind = kind;
  cell.width = 1;
  for (const std::size_t f : factors) cell.width *= f;
  cell.factors = std::move(factors);
  cell.backend = backend;
  cell.threads = 2;
  cell.lanes = lanes;
  cell.vectors_per_sec = vps;
  cell.seconds = vps > 0 ? static_cast<double>(lanes) / vps : 0.0;
  return cell;
}

/// A temp file under the test's working directory, removed on scope exit.
struct TempFile {
  explicit TempFile(std::string name) : path(std::move(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// ---- profile store ---------------------------------------------------

TEST(MachineProfile, RoundTripsThroughJson) {
  MachineProfile profile;
  profile.append(make_cell(NetworkKind::kK, {2, 2, 2},
                           EngineBackend::kBatch, 256, 1.5e6));
  profile.append(make_cell(NetworkKind::kL, {4, 4},
                           EngineBackend::kBatch, 64, 2.5e6));

  const auto parsed = MachineProfile::from_json(profile.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fingerprint(), profile.fingerprint());
  ASSERT_EQ(parsed->cells().size(), 2u);
  const ProfileCell& a = parsed->cells()[0];
  EXPECT_EQ(a.kind, NetworkKind::kK);
  EXPECT_EQ(a.factors, (std::vector<std::size_t>{2, 2, 2}));
  EXPECT_EQ(a.width, 8u);
  EXPECT_EQ(a.backend, EngineBackend::kBatch);
  EXPECT_EQ(a.threads, 2u);
  EXPECT_EQ(a.lanes, 256u);
  EXPECT_NEAR(a.vectors_per_sec, 1.5e6, 1.0);
  const ProfileCell& b = parsed->cells()[1];
  EXPECT_EQ(b.kind, NetworkKind::kL);
  EXPECT_EQ(b.backend, EngineBackend::kBatch);
}

TEST(MachineProfile, SaveAndLoadRoundTrip) {
  TempFile file("tune_test_roundtrip.json");
  MachineProfile profile;
  profile.append(make_cell(NetworkKind::kK, {4, 4},
                           EngineBackend::kBatch, 128, 3.0e6));
  ASSERT_TRUE(profile.save(file.path));

  const auto loaded = MachineProfile::load(file.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint(), profile.fingerprint());
  ASSERT_EQ(loaded->cells().size(), 1u);
  EXPECT_EQ(loaded->cells()[0].width, 16u);
}

TEST(MachineProfile, LoadMissingFileIsNullopt) {
  EXPECT_EQ(MachineProfile::load("tune_test_does_not_exist.json"),
            std::nullopt);
}

TEST(MachineProfile, LoadCorruptFileIsNullopt) {
  TempFile file("tune_test_corrupt.json");
  std::ofstream(file.path) << "this is { not \" a profile []";
  EXPECT_EQ(MachineProfile::load(file.path), std::nullopt);
}

TEST(MachineProfile, MalformedCellsAreDroppedNotFatal) {
  TempFile file("tune_test_partial.json");
  std::ofstream(file.path)
      << "{\n  \"machine_profile\": 1,\n  \"fingerprint\": \"f\",\n"
         "  \"cells\": [\n"
         "    {\"kind\": \"K\", \"factors\": \"2x2\", \"width\": 4, "
         "\"passes\": \"default\", \"backend\": \"batch\", \"threads\": 1, "
         "\"lanes\": 64, \"vectors_per_sec\": 10.0, \"seconds\": 1.0},\n"
         "    {\"kind\": \"K\", \"factors\": \"2x2\", \"width\": 5, "
         "\"passes\": \"default\", \"backend\": \"batch\", \"threads\": 1, "
         "\"lanes\": 64, \"vectors_per_sec\": 10.0, \"seconds\": 1.0},\n"
         "    {\"kind\": \"K\", \"factors\": \"3x3\", \"width\": 9, "
         "\"passes\": \"default\", \"backend\": \"auto\", \"threads\": 1, "
         "\"lanes\": 64, \"vectors_per_sec\": 10.0, \"seconds\": 1.0}\n"
         "  ]\n}\n";
  const auto loaded = MachineProfile::load(file.path);
  ASSERT_TRUE(loaded.has_value());
  // Row 2 (width != product of factors) and row 3 (backend "auto" is not
  // a concrete measurement) are dropped; row 1 survives.
  ASSERT_EQ(loaded->cells().size(), 1u);
  EXPECT_EQ(loaded->cells()[0].width, 4u);
}

TEST(MachineProfile, FingerprintIsV2AndKeyedOnThreadsOnly) {
  EXPECT_EQ(MachineProfile::fingerprint_for(MachineCaps{.threads = 6}),
            "scnet-profile-v2;threads=6");
  EXPECT_NE(MachineProfile::fingerprint_for(MachineCaps{.threads = 6}),
            MachineProfile::fingerprint_for(MachineCaps{.threads = 7}));
  const MachineProfile host;
  EXPECT_EQ(host.fingerprint(),
            MachineProfile::fingerprint_for(machine_caps()));
  EXPECT_TRUE(host.matches_host());
}

TEST(MachineProfile, V1ProfileWithSimdCellLoadsStale) {
  // Profiles written before the simd backend was removed carry a v1
  // fingerprint and may hold "simd" cells. They must still load: the simd
  // cell is dropped like any unknown backend, and the v1 fingerprint never
  // matches this build, so dispatch keeps the static policy.
  const std::string fingerprint =
      std::string("scnet-profile-v1;simd=1;threads=")
          .append(std::to_string(machine_caps().threads));
  const std::string json =
      "{\n  \"machine_profile\": 1,\n  \"fingerprint\": \"" + fingerprint +
      "\",\n  \"cells\": [\n"
      "    {\"kind\": \"K\", \"factors\": \"2x2x2\", \"width\": 8, "
      "\"passes\": \"default\", \"backend\": \"simd\", \"threads\": 1, "
      "\"lanes\": 1, \"vectors_per_sec\": 9.0e6, \"seconds\": 1.0},\n"
      "    {\"kind\": \"K\", \"factors\": \"2x2x2\", \"width\": 8, "
      "\"passes\": \"default\", \"backend\": \"batch\", \"threads\": 1, "
      "\"lanes\": 1, \"vectors_per_sec\": 5.0e5, \"seconds\": 1.0}\n"
      "  ]\n}\n";
  std::optional<MachineProfile> loaded;
  ASSERT_NO_THROW(loaded = MachineProfile::from_json(json));
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->cells().size(), 1u);
  EXPECT_EQ(loaded->cells()[0].backend, EngineBackend::kBatch);
  EXPECT_FALSE(loaded->matches_host());

  PlanShape shape;
  shape.width = 8;
  shape.depth = 3;
  shape.pair_gates = 12;
  EXPECT_EQ(select_backend(shape, 1, machine_caps(), &*loaded),
            select_backend(shape, 1, machine_caps()));
}

TEST(MachineProfile, AppendKeepsTheFasterMeasurement) {
  MachineProfile profile;
  profile.append(make_cell(NetworkKind::kK, {2, 2},
                           EngineBackend::kBatch, 64, 1.0e6));
  profile.append(make_cell(NetworkKind::kK, {2, 2},
                           EngineBackend::kBatch, 64, 2.0e6));  // faster
  ASSERT_EQ(profile.cells().size(), 1u);
  EXPECT_NEAR(profile.cells()[0].vectors_per_sec, 2.0e6, 1.0);
  profile.append(make_cell(NetworkKind::kK, {2, 2},
                           EngineBackend::kBatch, 64, 0.5e6));  // slower
  ASSERT_EQ(profile.cells().size(), 1u);
  EXPECT_NEAR(profile.cells()[0].vectors_per_sec, 2.0e6, 1.0);
}

TEST(MachineProfile, BestCellNeverCrossesWidths) {
  MachineProfile profile;
  profile.append(make_cell(NetworkKind::kK, {2, 2},
                           EngineBackend::kBatch, 256, 9.0e6));
  EXPECT_NE(profile.best_cell(4, 256), nullptr);
  EXPECT_EQ(profile.best_cell(8, 256), nullptr);  // width 8 unmeasured
}

TEST(MachineProfile, BestCellPrefersNearestLaneCount) {
  MachineProfile profile;
  profile.append(make_cell(NetworkKind::kK, {2, 2},
                           EngineBackend::kScalar, 64, 1.0e6));
  profile.append(make_cell(NetworkKind::kK, {2, 2},
                           EngineBackend::kThreaded, 4096, 9.0e6));
  const ProfileCell* near_small = profile.best_cell(4, 32);
  ASSERT_NE(near_small, nullptr);
  EXPECT_EQ(near_small->backend, EngineBackend::kScalar);
  const ProfileCell* near_large = profile.best_cell(4, 2048);
  ASSERT_NE(near_large, nullptr);
  EXPECT_EQ(near_large->backend, EngineBackend::kThreaded);
}

// ---- profile-backed backend selection --------------------------------

TEST(SelectBackend, ProfileOverridesTheStaticPolicy) {
  PlanShape shape;
  shape.width = 8;
  shape.depth = 3;
  shape.pair_gates = 12;
  // Static policy at lanes <= 1 is always scalar; a measured cell saying
  // "batch was fastest" must win over it.
  MachineProfile profile;  // host fingerprint: matches machine_caps()
  profile.append(make_cell(NetworkKind::kK, {2, 2, 2},
                           EngineBackend::kBatch, 1, 5.0e5));
  EXPECT_EQ(select_backend(shape, 1, machine_caps(), &profile),
            EngineBackend::kBatch);
  EXPECT_EQ(select_backend(shape, 1, machine_caps(), nullptr),
            EngineBackend::kScalar);
}

TEST(SelectBackend, FingerprintMismatchFallsBackToStatic) {
  PlanShape shape;
  shape.width = 8;
  shape.depth = 3;
  shape.pair_gates = 12;
  MachineProfile foreign("scnet-profile-v1;simd=maybe;threads=1000000");
  foreign.append(make_cell(NetworkKind::kK, {2, 2, 2},
                           EngineBackend::kBatch, 1, 5.0e5));
  EXPECT_EQ(select_backend(shape, 1, machine_caps(), &foreign),
            EngineBackend::kScalar);
}

TEST(SelectBackend, UnmeasuredWidthFallsBackToStatic) {
  PlanShape shape;
  shape.width = 32;  // profile only knows width 8
  shape.depth = 3;
  shape.pair_gates = 12;
  MachineProfile profile;
  profile.append(make_cell(NetworkKind::kK, {2, 2, 2},
                           EngineBackend::kBatch, 1, 5.0e5));
  EXPECT_EQ(select_backend(shape, 1, machine_caps(), &profile),
            EngineBackend::kScalar);
}

// ---- planner consumption ---------------------------------------------

TEST(Planner, ProfileCellsRankFirstAndRecordProvenance) {
  MachineProfile profile;
  profile.append(make_cell(NetworkKind::kL, {2, 2, 2},
                           EngineBackend::kBatch, 256, 7.7e6));

  PlanRequirements req;
  req.width = 8;
  req.batch_lanes = 256;
  req.profile = &profile;
  const auto plans = plan_candidates(req);
  ASSERT_FALSE(plans.empty());
  // The measured candidate outranks every static-scored one, carries the
  // measured backend, and says so in the rationale.
  const Plan& top = plans.front();
  EXPECT_TRUE(top.from_profile);
  EXPECT_EQ(top.kind, NetworkKind::kL);
  EXPECT_EQ(top.factors, (std::vector<std::size_t>{2, 2, 2}));
  EXPECT_EQ(top.recommended_backend, EngineBackend::kBatch);
  EXPECT_NEAR(top.measured_vps, 7.7e6, 1.0);
  EXPECT_NE(top.rationale.find("[profile:"), std::string::npos);
  // Unmeasured candidates keep the static scoring and provenance.
  bool saw_static = false;
  for (const Plan& plan : plans) {
    if (plan.from_profile) continue;
    saw_static = true;
    EXPECT_EQ(plan.measured_vps, 0.0);
    EXPECT_NE(plan.rationale.find("[static cost model]"), std::string::npos);
  }
  EXPECT_TRUE(saw_static);
}

TEST(Planner, ForeignProfileIsIgnoredEntirely) {
  MachineProfile foreign("not-this-machine");
  foreign.append(make_cell(NetworkKind::kL, {2, 2, 2},
                           EngineBackend::kBatch, 256, 7.7e6));
  PlanRequirements req;
  req.width = 8;
  req.batch_lanes = 256;
  req.profile = &foreign;
  for (const Plan& plan : plan_candidates(req)) {
    EXPECT_FALSE(plan.from_profile);
    EXPECT_NE(plan.rationale.find("[static cost model]"), std::string::npos);
  }
}

TEST(Planner, NoProfileMatchesStaticOrdering) {
  PlanRequirements with_null;
  with_null.width = 24;
  const auto a = plan_candidates(with_null);
  PlanRequirements with_foreign = with_null;
  MachineProfile foreign("not-this-machine");
  with_foreign.profile = &foreign;
  const auto b = plan_candidates(with_foreign);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].factors, b[i].factors);
    EXPECT_EQ(a[i].recommended_backend, b[i].recommended_backend);
  }
}

// ---- experiment manager ----------------------------------------------

TEST(ExperimentManager, ThreadAxisCollapsesForNonPoolBackends) {
  ExperimentConfig config;
  config.axes.networks = {NetworkSpec::member(NetworkKind::kK, {2, 2})};
  config.axes.thread_counts = {1, 2, 4};
  config.axes.batch_sizes = {16};

  config.axes.backends = {EngineBackend::kScalar};
  EXPECT_EQ(ExperimentManager(config).cells().size(), 1u);

  config.axes.backends = {EngineBackend::kThreaded};
  EXPECT_EQ(ExperimentManager(config).cells().size(), 3u);
}

TEST(ExperimentManager, QuickRunMeasuresAndConvertsToProfileCells) {
  ExperimentConfig config;
  config.axes.networks = {NetworkSpec::member(NetworkKind::kK, {2, 2})};
  config.axes.backends = {EngineBackend::kScalar};
  config.axes.batch_sizes = {8};
  config.reps = 1;
  config.max_cell_seconds = 10.0;
  config.parallelism = 1;

  const auto results = ExperimentManager(config).run();
  ASSERT_EQ(results.size(), 1u);
  const CellResult& r = results[0];
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.width, 4u);
  EXPECT_GT(r.vectors_per_sec, 0.0);
  EXPECT_EQ(r.reps_run, 1);

  MachineProfile profile;
  EXPECT_EQ(append_results(profile, results), 1u);
  ASSERT_EQ(profile.cells().size(), 1u);
  EXPECT_EQ(profile.cells()[0].backend, EngineBackend::kScalar);
}

TEST(ExperimentManager, CustomNetworkCellsDoNotConvert) {
  ExperimentCell cell;
  cell.network = NetworkSpec::named(
      "pair", [](Runtime&) { return make_k_network({2}); });
  cell.backend = EngineBackend::kScalar;
  cell.lanes = 4;
  ExperimentConfig config;
  config.reps = 1;
  const CellResult result = ExperimentManager(config).run_cell(cell);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(to_profile_cell(result), std::nullopt);
}

TEST(ExperimentManager, ThrowingBuildBecomesFailedResultNotCrash) {
  ExperimentCell cell;
  cell.network = NetworkSpec::named("broken", [](Runtime&) -> Network {
    throw std::runtime_error("deliberate");
  });
  cell.backend = EngineBackend::kScalar;
  const CellResult result = ExperimentManager(ExperimentConfig{}).run_cell(cell);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "deliberate");
}

TEST(DefaultSweep, QuickShrinksEveryAxis) {
  const std::size_t widths[] = {16};
  const ExperimentConfig quick = default_sweep(widths, true);
  const ExperimentConfig full = default_sweep(widths, false);
  EXPECT_LT(quick.axes.networks.size(), full.axes.networks.size());
  EXPECT_LT(quick.axes.batch_sizes.size(), full.axes.batch_sizes.size());
  EXPECT_LT(quick.max_cell_seconds, full.max_cell_seconds);
  EXPECT_GT(ExperimentManager(quick).cells().size(), 0u);
}

}  // namespace
}  // namespace scn::tune
