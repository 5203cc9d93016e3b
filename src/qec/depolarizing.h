// Symmetric depolarizing error model (thesis §5.3.1, following [11,19]).
//
// With physical error rate p:
//  * every single-qubit operation (gates, preparation, and explicit
//    idling — an idle time slot counts as an identity gate) suffers one
//    of {X, Y, Z} afterwards with probability p/3 each;
//  * a measurement suffers an X flip *before* readout with probability p;
//  * a two-qubit gate suffers one of the 15 non-identity two-qubit Pauli
//    combinations with probability p/15 each.
#pragma once

#include <cstdint>
#include <random>
#include <utility>

#include "circuit/circuit.h"
#include "journal/snapshot.h"
#include "qec/fault_sampler.h"

namespace qpf::qec {

class DepolarizingModel {
 public:
  /// Throws std::invalid_argument unless 0 <= p <= 1.
  DepolarizingModel(double p, std::uint64_t seed);

  [[nodiscard]] double physical_error_rate() const noexcept { return p_; }

  /// Rewrite a circuit with sampled faults inserted.  `num_qubits` is
  /// the register size, needed to charge idle errors to untouched
  /// qubits in every slot.  Equivalent to sample() followed by apply()
  /// (a copy of `circuit` when nothing fired).
  [[nodiscard]] Circuit inject(const Circuit& circuit,
                               std::size_t num_qubits);

  /// Draw the faults for `circuit` — the same RNG draws, in the same
  /// order, as inject() — and tally them.  Returns true when at least
  /// one fired; otherwise the noisy circuit is `circuit` itself.
  [[nodiscard]] bool sample(const Circuit& circuit, std::size_t num_qubits);

  /// `circuit`, the one last passed to sample(), with its faults
  /// inserted.
  [[nodiscard]] Circuit apply(const Circuit& circuit) const {
    return plan_.apply(circuit);
  }

  [[nodiscard]] const ErrorTally& tally() const noexcept { return tally_; }
  void reset_tally() noexcept { tally_ = {}; }

  // --- Snapshot / restore (crash-safe experiment engine) -------------
  /// Serialize the RNG engine (exactly) and the fault tally; the rate
  /// itself is configuration, echoed only for a consistency check.
  void save(journal::SnapshotWriter& out) const;

  /// Restore into this model.  Throws qpf::CheckpointError on stream
  /// corruption or a physical-error-rate mismatch.
  void load(journal::SnapshotReader& in);

 private:
  friend class FaultPlan;
  /// FaultPlan's draws: a fault at this location?
  [[nodiscard]] bool fires() { return flip_(rng_); }
  /// Uniformly pick X, Y or Z.
  [[nodiscard]] GateType pauli();
  /// One of the 15 non-identity two-qubit Paulis, uniformly.
  [[nodiscard]] std::pair<GateType, GateType> pair();

  double p_;
  Bernoulli flip_;
  std::mt19937_64 rng_;
  ErrorTally tally_;
  FaultPlan plan_;
};

}  // namespace qpf::qec
