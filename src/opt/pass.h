// The pass pipeline: canonicalize and optimize a Network before execution.
//
// Every construction in src/core/ emits a correct Network, but the gate
// stream is whatever the recursive composition happened to produce: layers
// can be loose after gate removal, structurally identical networks can
// differ in gate order, and composed networks (compose(), prefix_layers())
// routinely contain comparators that never fire. The passes in src/opt/
// rewrite a Network into a canonical, optimized Network with the SAME
// width, the SAME logical output order, and — for the declared semantics —
// the SAME input/output behavior, so every downstream engine (the per-gate
// interpreters in src/sim/, the verifiers in src/verify/, the compiled
// ExecutionPlan in src/engine/) consumes one shared representation.
//
// Soundness is semantics-dependent (see docs/passes.md). A comparator
// network and a balancing network share topology but not algebra: wide
// balancers do not decompose into 2-balancers (paper Figure 3), and a
// comparator that provably never fires on 0-1 inputs still moves tokens as
// a balancer. Each pass therefore declares, through applicable(), which
// semantics it is sound for; the PassManager records skipped passes in the
// provenance trail instead of applying them unsoundly.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.h"

namespace scn {

/// Which gate algebra the optimized network must preserve.
enum class Semantics : std::uint8_t {
  kComparator,  ///< gates sort their wires descending (sorting networks)
  kBalancer,    ///< gates redistribute quiescent token counts (counting)
};

[[nodiscard]] const char* to_string(Semantics semantics);

/// Whether to run the pipeline, exposed as --passes=... in the CLI.
enum class PassLevel : std::uint8_t {
  kNone,     ///< run the network exactly as constructed
  kDefault,  ///< canonicalize + remove provably dead gates
};

[[nodiscard]] const char* to_string(PassLevel level);
[[nodiscard]] std::optional<PassLevel> parse_pass_level(std::string_view s);

struct PassOptions {
  Semantics semantics = Semantics::kComparator;
};

/// Provenance record for one pass application.
struct PassStats {
  std::string name;
  bool applied = false;  ///< false => skipped (semantics/width gate)
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::uint32_t depth_before = 0;
  std::uint32_t depth_after = 0;
  double seconds = 0.0;
};

/// A network-to-network rewrite. Implementations must preserve width and
/// logical output order, must never increase depth (the PassManager
/// asserts it), and must preserve behavior under every semantics for which
/// applicable() returns true.
class Pass {
 public:
  virtual ~Pass() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether running this pass on `net` under `opts` is sound (and worth
  /// attempting at all). Inapplicable passes are skipped, not failed.
  [[nodiscard]] virtual bool applicable(const Network& net,
                                        const PassOptions& opts) const = 0;

  [[nodiscard]] virtual Network run(const Network& net,
                                    const PassOptions& opts) const = 0;
};

/// The result of a pipeline run: the rewritten network plus one PassStats
/// per configured pass (including skipped ones), in execution order.
struct PipelineResult {
  Network network;
  std::vector<PassStats> passes;

  [[nodiscard]] std::size_t gates_removed() const;
  /// Layers removed by the pipeline (input depth - output depth).
  [[nodiscard]] std::uint32_t layers_removed() const;
  /// One line per pass: "name: gates a->b depth c->d (or skipped)".
  [[nodiscard]] std::string summary() const;
};

/// Runs an ordered list of passes over a network.
class PassManager {
 public:
  PassManager() = default;

  PassManager& add(std::unique_ptr<Pass> pass);
  [[nodiscard]] std::size_t size() const { return passes_.size(); }

  [[nodiscard]] PipelineResult run(const Network& net,
                                   const PassOptions& opts = {}) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// The pipeline for a level:
///   none    -> {}
///   default -> relayer, dedup-adjacent, zero-one-elim, relayer
[[nodiscard]] PassManager make_pass_pipeline(PassLevel level);

/// Convenience: make_pass_pipeline(level).run(net, opts).
[[nodiscard]] PipelineResult optimize_network(const Network& net,
                                              PassLevel level,
                                              const PassOptions& opts = {});

}  // namespace scn
