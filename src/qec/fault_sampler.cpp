#include "qec/fault_sampler.h"

#include <cmath>
#include <limits>

namespace qpf::qec {

double canonical_double(std::uint64_t x) noexcept {
  // libstdc++'s generate_canonical<double, 53> takes a single 64-bit draw
  // from mt19937_64: sum = double(x), divided by range 2^64 (exact).
  const double u = static_cast<double>(x) / 0x1p64;
  return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
}

Bernoulli::Bernoulli(double p) noexcept {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (!(p > 0.0)) {
    return;  // threshold 0: never (p == 0, and NaN never compares below)
  }
  if (canonical_double(kMax) < p) {
    always_ = true;  // every draw is below p (p == 1)
    threshold_ = kMax;
    return;
  }
  // Smallest x with canonical_double(x) >= p; canonical_double(0) = 0 < p.
  std::uint64_t below = 0;
  std::uint64_t at_or_above = kMax;
  while (at_or_above - below > 1) {
    const std::uint64_t mid = below + (at_or_above - below) / 2;
    if (canonical_double(mid) >= p) {
      at_or_above = mid;
    } else {
      below = mid;
    }
  }
  threshold_ = at_or_above;
}

Circuit FaultPlan::apply(const Circuit& circuit) const {
  Circuit out{circuit.name()};
  auto next = faults_.begin();
  const std::vector<TimeSlot>& slots = circuit.slots();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    TimeSlot pre;   // X flips ahead of measurements
    TimeSlot post;  // gate and idle errors after the slot
    for (; next != faults_.end() && next->slot == s; ++next) {
      (next->before ? pre : post).add(next->op);
    }
    out.append_slot(std::move(pre));
    out.append_slot(slots[s]);
    out.append_slot(std::move(post));
  }
  return out;
}

}  // namespace qpf::qec
