// Shared Pauli-fault sampling for the depolarizing and biased noise
// models (thesis §5.3.1).
//
// Both models visit a circuit's noise locations in one fixed order —
// slot by slot, each operation in slot order (a measurement may flip
// before readout, a preparation or gate may fault after the slot),
// then every idle qubit in ascending order — and draw one Bernoulli(p)
// per location, plus the Pauli(s) of each fault that fires.  FaultPlan
// runs that walk once and records the faults; only when one fired does
// apply() build the rewritten circuit.  At low p almost no ESM round
// draws a fault, so the caller forwards the original circuit untouched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "circuit/circuit.h"

namespace qpf::qec {

/// Tally of injected faults, for diagnostics and tests.
struct ErrorTally {
  std::size_t single_qubit = 0;
  std::size_t two_qubit = 0;
  std::size_t measurement_flips = 0;
  std::size_t idle = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return single_qubit + two_qubit + measurement_flips + idle;
  }
};

/// The double libstdc++'s std::uniform_real_distribution<double>{0, 1}
/// returns for the raw mt19937_64 draw x: generate_canonical's
/// double(x) * 2^-64, clamped to nextafter(1, 0) when it rounds to 1.
[[nodiscard]] double canonical_double(std::uint64_t x) noexcept;

/// Bernoulli(p) decided by one raw mt19937_64 draw: x < threshold.
///
/// canonical_double is monotone in x, so the draws with
/// canonical_double(x) < p form a prefix [0, T) of the 64-bit range.
/// The constructor finds T by bisection on canonical_double itself, so
/// this is the same decision, draw for draw, as
/// `std::uniform_real_distribution<double>{0, 1}(rng) < p` — without
/// the integer-to-double conversion and the out-of-line call per draw.
/// p == 1 accepts all 2^64 draws, which no 64-bit T can express; that
/// case sets `always_`.
class Bernoulli {
 public:
  /// Requires 0 <= p <= 1.
  explicit Bernoulli(double p) noexcept;

  [[nodiscard]] bool operator()(std::mt19937_64& rng) const noexcept {
    const bool below = rng() < threshold_;
    return below || always_;
  }

  [[nodiscard]] std::uint64_t threshold() const noexcept { return threshold_; }
  [[nodiscard]] bool always() const noexcept { return always_; }

 private:
  std::uint64_t threshold_ = 0;
  bool always_ = false;
};

/// One sampled fault: `op` is inserted in a fresh slot right before
/// slot `slot` (a measurement flip) or right after it (everything else).
struct Fault {
  std::size_t slot;
  bool before;
  Operation op;
};

/// The faults drawn for one circuit, in draw order.  Its buffers are
/// reused from circuit to circuit.
class FaultPlan {
 public:
  /// Walk every noise location of `circuit` (see the file comment) and
  /// record the faults that fire.  `noise` supplies the draws:
  ///   bool fires()                          — Bernoulli(p) at a location,
  ///   GateType pauli()                      — a one-qubit fault's Pauli,
  ///   std::pair<GateType, GateType> pair()  — a two-qubit fault's
  ///                                           Paulis (kI = no fault).
  /// Returns true when at least one fault fired.  The caller checks
  /// that `num_qubits` covers the circuit.
  template <typename Noise>
  bool sample(const Circuit& circuit, std::size_t num_qubits, Noise& noise,
              ErrorTally& tally);

  /// `circuit` — the one last passed to sample() — with every recorded
  /// fault inserted.
  [[nodiscard]] Circuit apply(const Circuit& circuit) const;

 private:
  std::vector<Fault> faults_;
  std::vector<std::uint8_t> busy_;
};

template <typename Noise>
bool FaultPlan::sample(const Circuit& circuit, std::size_t num_qubits,
                       Noise& noise, ErrorTally& tally) {
  faults_.clear();
  busy_.resize(num_qubits);
  const std::vector<TimeSlot>& slots = circuit.slots();
  for (std::size_t s = 0; s < slots.size(); ++s) {
    std::fill(busy_.begin(), busy_.end(), 0);
    for (const Operation& op : slots[s]) {
      // control() / target() name the same qubit for one-qubit gates.
      busy_[op.control()] = 1;
      busy_[op.target()] = 1;
      switch (category(op.gate())) {
        case GateCategory::kMeasurement:
          if (noise.fires()) {
            faults_.push_back({s, true, Operation{GateType::kX, op.control()}});
            ++tally.measurement_flips;
          }
          break;
        case GateCategory::kInitialization:
          if (noise.fires()) {
            faults_.push_back({s, false, Operation{noise.pauli(), op.control()}});
            ++tally.single_qubit;
          }
          break;
        default:
          if (op.arity() == 1) {
            if (noise.fires()) {
              faults_.push_back(
                  {s, false, Operation{noise.pauli(), op.control()}});
              ++tally.single_qubit;
            }
          } else if (noise.fires()) {
            const std::pair<GateType, GateType> paulis = noise.pair();
            if (paulis.first != GateType::kI) {
              faults_.push_back({s, false, Operation{paulis.first, op.control()}});
            }
            if (paulis.second != GateType::kI) {
              faults_.push_back({s, false, Operation{paulis.second, op.target()}});
            }
            ++tally.two_qubit;
          }
          break;
      }
    }
    // Idle errors: every untouched qubit executes an identity gate.
    for (Qubit q = 0; q < num_qubits; ++q) {
      if (busy_[q] == 0 && noise.fires()) {
        faults_.push_back({s, false, Operation{noise.pauli(), q}});
        ++tally.idle;
      }
    }
  }
  return !faults_.empty();
}

}  // namespace qpf::qec
