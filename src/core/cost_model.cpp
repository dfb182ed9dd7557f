#include "core/cost_model.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <vector>

#include "core/factorization.h"
#include "core/r_network.h"
#include "perf/thread_pool.h"

namespace scn {

const char* to_string(EngineBackend backend) {
  switch (backend) {
    case EngineBackend::kAuto:
      return "auto";
    case EngineBackend::kScalar:
      return "scalar";
    case EngineBackend::kBatch:
      return "batch";
    case EngineBackend::kThreaded:
      return "threaded";
  }
  return "auto";
}

std::optional<EngineBackend> parse_backend(std::string_view name) {
  if (name == "auto") return EngineBackend::kAuto;
  if (name == "scalar") return EngineBackend::kScalar;
  if (name == "batch") return EngineBackend::kBatch;
  if (name == "threaded") return EngineBackend::kThreaded;
  return std::nullopt;
}

EngineBackend default_backend() {
  const char* env = std::getenv("SCNET_BACKEND");
  if (env == nullptr) return EngineBackend::kAuto;
  return parse_backend(env).value_or(EngineBackend::kAuto);
}

MachineCaps machine_caps() {
  MachineCaps caps;
  caps.threads = default_thread_count();
  return caps;
}

EngineBackend select_backend(const PlanShape& shape, std::size_t lanes,
                             const MachineCaps& caps) {
  if (lanes <= 1) return EngineBackend::kScalar;
  const std::size_t gates =
      std::max<std::size_t>(shape.pair_gates + shape.wide_gates, 1);
  if (caps.threads > 1 && lanes >= kThreadedMinLanes &&
      lanes * gates >= kThreadedMinWork) {
    return EngineBackend::kThreaded;
  }
  return EngineBackend::kBatch;
}

BaseCost single_balancer_cost() {
  return [](std::size_t p, std::size_t q) -> NetworkCost {
    return {1, p * q};
  };
}

NetworkCost two_merger_cost(std::size_t p, std::size_t q0, std::size_t q1,
                            bool capped) {
  assert(p >= 2 && q0 >= 1 && q1 >= 1);
  const std::size_t cols = q0 + q1;
  NetworkCost cost;
  if (!capped) {
    cost.gates = p + cols;                    // rows + columns
    cost.endpoints = p * cols + cols * p;
    return cost;
  }
  assert(q0 == q1 && "capped substitution requires q0 == q1");
  const std::size_t q = q0;
  // Each row becomes a T(q, 1, 1): q two-balancers + 2 q-balancers.
  const NetworkCost row{q + 2, 2 * q + 2 * q};
  cost = p * row;
  cost += NetworkCost{cols, cols * p};        // the column layer
  return cost;
}

NetworkCost bitonic_converter_cost(std::size_t p, std::size_t q) {
  return {p + q, p * q + q * p};
}

NetworkCost staircase_cost(std::size_t r, std::size_t p, std::size_t q,
                           const BaseCost& base, StaircaseVariant variant) {
  assert(r >= 2 && p >= 2 && q >= 2);
  NetworkCost cost = r * base(p, q);  // stage 1: every block stepped
  switch (variant) {
    case StaircaseVariant::kTwoMerger:
    case StaircaseVariant::kTwoMergerCapped: {
      const bool capped = variant == StaircaseVariant::kTwoMergerCapped;
      const std::size_t mergers = 2 * (r / 2) + (r % 2);
      cost += mergers * two_merger_cost(p, q, q, capped);
      break;
    }
    case StaircaseVariant::kRebalanceCount:
    case StaircaseVariant::kRebalanceBitonic: {
      const std::size_t s = p * q / 2;
      cost += NetworkCost{r * s, 2 * r * s};  // exchange layer ℓ
      if (variant == StaircaseVariant::kRebalanceCount) {
        cost += r * base(p, q);
      } else {
        cost += r * bitonic_converter_cost(p, q);
      }
      break;
    }
  }
  return cost;
}

NetworkCost merger_cost(std::span<const std::size_t> factors,
                        const BaseCost& base, StaircaseVariant variant) {
  const std::size_t n = factors.size();
  assert(n >= 2);
  if (n == 2) return base(factors[0], factors[1]);
  const std::size_t p_n2 = factors[n - 2];
  std::vector<std::size_t> sub(factors.begin(), factors.end());
  sub.erase(sub.begin() + static_cast<long>(n) - 2);
  NetworkCost cost = p_n2 * merger_cost(sub, base, variant);
  const std::size_t r = product(factors.first(n - 2));
  cost += staircase_cost(r, factors[n - 1], p_n2, base, variant);
  return cost;
}

NetworkCost counting_cost(std::span<const std::size_t> factors,
                          const BaseCost& base, StaircaseVariant variant) {
  const std::size_t n = factors.size();
  assert(n >= 1);
  if (n == 1) return {1, factors[0]};
  if (n == 2) return base(factors[0], factors[1]);
  NetworkCost cost =
      factors[n - 1] * counting_cost(factors.first(n - 1), base, variant);
  cost += merger_cost(factors, base, variant);
  return cost;
}

NetworkCost k_cost(std::span<const std::size_t> factors) {
  return counting_cost(factors, single_balancer_cost(),
                       StaircaseVariant::kRebalanceCount);
}

namespace {

// ---- R(p, q) cost, mirroring build_r_network branch for branch ----

/// K over a factor list with unit factors dropped (build_k_network).
NetworkCost k_filtered_cost(std::initializer_list<std::size_t> factors) {
  std::vector<std::size_t> effective;
  for (const std::size_t f : factors) {
    if (f >= 2) effective.push_back(f);
  }
  if (effective.empty()) return {0, 0};
  if (effective.size() <= 2) return {1, product(effective)};
  return counting_cost(effective, single_balancer_cost(),
                       StaircaseVariant::kRebalanceCount);
}

/// General T(p, q0, q1) cost with the degenerate handling of merge2 and
/// build_two_merger: empty operands pass through; p == 1 is one row gate.
NetworkCost merge2_cost(std::size_t len0, std::size_t len1, std::size_t p) {
  if (len0 == 0 || len1 == 0) return {0, 0};
  assert(p >= 1 && len0 % p == 0 && len1 % p == 0);
  const std::size_t cols = len0 / p + len1 / p;
  NetworkCost cost;
  if (cols >= 2) cost += NetworkCost{p, p * cols};  // row gates
  if (p >= 2) cost += NetworkCost{cols, cols * p};  // column gates
  return cost;
}

/// step_rect (quadrants B and C).
NetworkCost step_rect_cost(std::size_t sq, std::size_t cnt) {
  if (cnt == 0) return {0, 0};
  if (cnt == 1) return k_filtered_cost({sq, sq});
  const std::size_t c0 = cnt / 2, c1 = cnt - c0;
  return k_filtered_cost({c0, sq, sq}) + k_filtered_cost({c1, sq, sq}) +
         merge2_cost(sq * sq * c0, sq * sq * c1, sq * sq);
}

/// step_d (quadrant D).
NetworkCost step_d_cost(std::size_t rp, std::size_t rq) {
  if (rp == 0 || rq == 0) return {0, 0};
  const std::size_t p0 = rp / 2, p1 = rp - p0;
  const std::size_t q0 = rq / 2, q1 = rq - q0;
  auto stepify = [](std::size_t len) -> NetworkCost {
    return len >= 2 ? NetworkCost{1, len} : NetworkCost{0, 0};
  };
  NetworkCost cost = stepify(p0 * q0) + stepify(p0 * q1) +
                     stepify(p1 * q0) + stepify(p1 * q1);
  cost += merge2_cost(p0 * q0, p0 * q1, p0);
  cost += merge2_cost(p1 * q0, p1 * q1, p1);
  const std::size_t d01 = p0 * q0 + p0 * q1;
  const std::size_t d23 = p1 * q0 + p1 * q1;
  cost += merge2_cost(d01, d23, rq);
  return cost;
}

}  // namespace

NetworkCost r_cost(std::size_t p, std::size_t q) {
  assert(p >= 2 && q >= 2);
  const std::size_t hp = integer_sqrt(p), rp = p - hp * hp;
  const std::size_t hq = integer_sqrt(q), rq = q - hq * hq;
  NetworkCost cost = k_filtered_cost({hp, hp, hq, hq});
  cost += step_rect_cost(hp, rq);
  cost += step_rect_cost(hq, rp);
  cost += step_d_cost(rp, rq);
  const std::size_t a_len = hp * hp * hq * hq;
  const std::size_t b_len = hp * hp * rq;
  const std::size_t c_len = rp * hq * hq;
  const std::size_t d_len = rp * rq;
  cost += merge2_cost(a_len, b_len, hp * hp);
  cost += merge2_cost(c_len, d_len, rp);
  cost += merge2_cost(a_len + b_len, c_len + d_len, q);
  return cost;
}

NetworkCost l_cost(std::span<const std::size_t> factors) {
  return counting_cost(
      factors, [](std::size_t p, std::size_t q) { return r_cost(p, q); },
      StaircaseVariant::kRebalanceBitonic);
}

}  // namespace scn
