#include "qec/depolarizing.h"

#include <stdexcept>

#include "circuit/error.h"

namespace qpf::qec {

DepolarizingModel::DepolarizingModel(double p, std::uint64_t seed)
    : p_(p), flip_(p), rng_(seed) {
  if (p < 0.0 || p > 1.0) {
    throw StackConfigError("DepolarizingModel", "p out of [0,1]");
  }
}

GateType DepolarizingModel::pauli() {
  static constexpr GateType kPaulis[] = {GateType::kX, GateType::kY,
                                         GateType::kZ};
  std::uniform_int_distribution<int> dist(0, 2);
  return kPaulis[dist(rng_)];
}

std::pair<GateType, GateType> DepolarizingModel::pair() {
  // Draw a combined index 1..15 and split it into two one-qubit Paulis
  // (I allowed on one side but not both).
  std::uniform_int_distribution<int> dist(1, 15);
  const int combo = dist(rng_);
  static constexpr GateType kOneQubit[] = {GateType::kI, GateType::kX,
                                           GateType::kY, GateType::kZ};
  return {kOneQubit[combo / 4], kOneQubit[combo % 4]};
}

bool DepolarizingModel::sample(const Circuit& circuit,
                               std::size_t num_qubits) {
  if (circuit.min_register_size() > num_qubits) {
    throw StackConfigError("DepolarizingModel", "register too small");
  }
  return plan_.sample(circuit, num_qubits, *this, tally_);
}

Circuit DepolarizingModel::inject(const Circuit& circuit,
                                  std::size_t num_qubits) {
  return sample(circuit, num_qubits) ? apply(circuit) : circuit;
}

void DepolarizingModel::save(journal::SnapshotWriter& out) const {
  out.tag("depolarizing");
  out.write_double(p_);
  out.write_rng(rng_);
  out.write_size(tally_.single_qubit);
  out.write_size(tally_.two_qubit);
  out.write_size(tally_.measurement_flips);
  out.write_size(tally_.idle);
}

void DepolarizingModel::load(journal::SnapshotReader& in) {
  in.expect_tag("depolarizing");
  const double p = in.read_double();
  if (p != p_) {
    throw CheckpointError(
        "depolarizing snapshot: physical error rate mismatch (checkpoint " +
        std::to_string(p) + ", configured " + std::to_string(p_) + ")");
  }
  rng_ = in.read_rng();
  tally_.single_qubit = in.read_size();
  tally_.two_qubit = in.read_size();
  tally_.measurement_flips = in.read_size();
  tally_.idle = in.read_size();
}

}  // namespace qpf::qec
