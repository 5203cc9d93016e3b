#include "qec/biased_noise.h"

#include <stdexcept>

#include "circuit/error.h"

namespace qpf::qec {

BiasedNoiseModel::BiasedNoiseModel(double p, double eta, std::uint64_t seed)
    : p_(p),
      eta_(eta),
      px_(p / (2.0 * (eta + 1.0))),
      pz_(p * eta / (eta + 1.0)),
      flip_(p),
      rng_(seed) {
  if (p < 0.0 || p > 1.0) {
    throw StackConfigError("BiasedNoiseModel", "p out of [0,1]");
  }
  if (eta <= 0.0) {
    throw StackConfigError("BiasedNoiseModel", "eta must be positive");
  }
}

GateType BiasedNoiseModel::pauli() {
  // Conditional weights given an error: X : Y : Z = px : px : pz.
  const double u = canonical_double(rng_()) * (2.0 * px_ + pz_);
  if (u < px_) {
    return GateType::kX;
  }
  if (u < 2.0 * px_) {
    return GateType::kY;
  }
  return GateType::kZ;
}

std::pair<GateType, GateType> BiasedNoiseModel::pair() {
  // At least one operand faults; each side independently draws
  // identity with the complementary weight.
  GateType first = GateType::kI;
  GateType second = GateType::kI;
  while (first == GateType::kI && second == GateType::kI) {
    first = half_(rng_) ? pauli() : GateType::kI;
    second = half_(rng_) ? pauli() : GateType::kI;
  }
  return {first, second};
}

bool BiasedNoiseModel::sample(const Circuit& circuit,
                              std::size_t num_qubits) {
  if (circuit.min_register_size() > num_qubits) {
    throw StackConfigError("BiasedNoiseModel", "register too small");
  }
  return plan_.sample(circuit, num_qubits, *this, tally_);
}

Circuit BiasedNoiseModel::inject(const Circuit& circuit,
                                 std::size_t num_qubits) {
  return sample(circuit, num_qubits) ? apply(circuit) : circuit;
}

void BiasedNoiseModel::save(journal::SnapshotWriter& out) const {
  out.tag("biased-noise");
  out.write_double(p_);
  out.write_double(eta_);
  out.write_rng(rng_);
  out.write_size(tally_.single_qubit);
  out.write_size(tally_.two_qubit);
  out.write_size(tally_.measurement_flips);
  out.write_size(tally_.idle);
}

void BiasedNoiseModel::load(journal::SnapshotReader& in) {
  in.expect_tag("biased-noise");
  const double p = in.read_double();
  const double eta = in.read_double();
  if (p != p_ || eta != eta_) {
    throw CheckpointError("biased noise snapshot: rate / bias mismatch");
  }
  rng_ = in.read_rng();
  tally_.single_qubit = in.read_size();
  tally_.two_qubit = in.read_size();
  tally_.measurement_flips = in.read_size();
  tally_.idle = in.read_size();
}

}  // namespace qpf::qec
