// Biased Pauli noise (thesis future work: "more realistic error
// models"; cf. Aliferis & Preskill [28]).
//
// Parameterized by the total physical error rate p and the bias
// eta = p_Z / (p_X + p_Y): dephasing-dominated hardware (e.g.
// superconducting qubits away from the sweet spot) has eta >> 1.
//   p_Z = p * eta / (eta + 1),  p_X = p_Y = p / (2 * (eta + 1)).
// eta = 0.5 recovers the symmetric depolarizing channel.
//
// Two-qubit gates draw independent single-qubit errors on each operand
// from the same biased marginal (conditioned on at least one being
// non-identity), and measurements flip with the full probability p
// (X before readout), matching the symmetric model's conventions.
#pragma once

#include <cstdint>
#include <random>
#include <utility>

#include "circuit/circuit.h"
#include "journal/snapshot.h"
#include "qec/fault_sampler.h"

namespace qpf::qec {

class BiasedNoiseModel {
 public:
  /// Throws std::invalid_argument unless 0 <= p <= 1 and eta > 0.
  BiasedNoiseModel(double p, double eta, std::uint64_t seed);

  [[nodiscard]] double physical_error_rate() const noexcept { return p_; }
  [[nodiscard]] double bias() const noexcept { return eta_; }

  /// Per-Pauli marginals.
  [[nodiscard]] double p_x() const noexcept { return px_; }
  [[nodiscard]] double p_y() const noexcept { return px_; }
  [[nodiscard]] double p_z() const noexcept { return pz_; }

  /// Rewrite a circuit with sampled faults inserted; `num_qubits` sizes
  /// the register for idle errors (same conventions as
  /// DepolarizingModel::inject).
  [[nodiscard]] Circuit inject(const Circuit& circuit,
                               std::size_t num_qubits);

  /// Draw and tally the faults for `circuit`, as inject() does; true
  /// when at least one fired (see DepolarizingModel::sample).
  [[nodiscard]] bool sample(const Circuit& circuit, std::size_t num_qubits);

  /// `circuit`, the one last passed to sample(), with its faults
  /// inserted.
  [[nodiscard]] Circuit apply(const Circuit& circuit) const {
    return plan_.apply(circuit);
  }

  [[nodiscard]] const ErrorTally& tally() const noexcept { return tally_; }
  void reset_tally() noexcept { tally_ = {}; }

  // --- Snapshot / restore (crash-safe experiment engine) -------------
  /// Serialize the RNG engine (exactly) and the fault tally; p and eta
  /// are configuration, echoed only for a consistency check.
  void save(journal::SnapshotWriter& out) const;

  /// Restore into this model.  Throws qpf::CheckpointError on stream
  /// corruption or a rate / bias mismatch.
  void load(journal::SnapshotReader& in);

 private:
  friend class FaultPlan;
  /// FaultPlan's draws: a fault at this location?
  [[nodiscard]] bool fires() { return flip_(rng_); }
  /// Draw a Pauli conditioned on "an error happened": X/Y/Z with the
  /// biased conditional weights.
  [[nodiscard]] GateType pauli();
  /// A two-qubit fault: independent biased Paulis on each operand,
  /// conditioned on at least one being non-identity.
  [[nodiscard]] std::pair<GateType, GateType> pair();

  double p_;
  double eta_;
  double px_;
  double pz_;
  Bernoulli flip_;
  Bernoulli half_{0.5};
  std::mt19937_64 rng_;
  ErrorTally tally_;
  FaultPlan plan_;
};

}  // namespace qpf::qec
