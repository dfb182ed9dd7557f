#include "count/fetch_inc.h"

namespace scn {
namespace {

/// Per-thread wire cursor: threads start on distinct wires and walk
/// round-robin, spreading entry contention.
struct WireCursor {
  std::uint32_t value = 0;
  bool initialized = false;
};

thread_local WireCursor tls_cursor;

}  // namespace

NetworkCounter::NetworkCounter(const Network& net)
    : storage_(net),
      net_(storage_),
      width_(static_cast<std::uint32_t>(net.width())) {}

std::uint64_t NetworkCounter::next() {
  if (!tls_cursor.initialized) {
    tls_cursor.value = thread_seq_.fetch_add(1, std::memory_order_relaxed);
    tls_cursor.initialized = true;
  }
  const auto wire =
      static_cast<std::uint32_t>(reduce_mod(tls_cursor.value++, width_));
  const ConcurrentNetwork::ExitEvent exit = net_.traverse(
      static_cast<Wire>(wire));
  return static_cast<std::uint64_t>(exit.position) +
         static_cast<std::uint64_t>(width_) * exit.ticket;
}

}  // namespace scn
