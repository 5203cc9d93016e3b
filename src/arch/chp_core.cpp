#include "arch/chp_core.h"

#include <stdexcept>

#include "circuit/bug_plant.h"
#include "circuit/error.h"

namespace qpf::arch {

void ChpCore::create_qubits(std::size_t count) {
  if (count == 0) {
    throw StackConfigError("ChpCore", "zero qubits requested");
  }
  binary_.assign(binary_.size() + count, BinaryValue::kUnknown);
  tableau_ = std::make_unique<stab::Tableau>(binary_.size(), seed_);
  // A fresh tableau is |0...0>.
  for (auto& value : binary_) {
    value = BinaryValue::kZero;
  }
  queue_.clear();
}

void ChpCore::remove_qubits() {
  tableau_.reset();
  binary_.clear();
  queue_.clear();
}

void ChpCore::add(const Circuit& circuit) {
  if (circuit.min_register_size() > binary_.size()) {
    throw StackConfigError("ChpCore", "circuit exceeds register");
  }
  queue_.push_back(circuit);
}

void ChpCore::execute() {
  if (tableau_ == nullptr) {
    throw std::logic_error("ChpCore: no qubits allocated");
  }
  std::vector<Circuit> pending;
  pending.swap(queue_);  // cleared even if a gate below throws
  for (const Circuit& circuit : pending) {
    for (const TimeSlot& slot : circuit) {
      for (const Operation& op : slot) {
        switch (category(op.gate())) {
          case GateCategory::kInitialization:
            reset(op.qubit(0));
            break;
          case GateCategory::kMeasurement:
            binary_[op.qubit(0)] = tableau_->measure(op.qubit(0)).value
                                       ? BinaryValue::kOne
                                       : BinaryValue::kZero;
            break;
          default:
            tableau_->apply_unitary(op);
            for (int i = 0; i < op.arity(); ++i) {
              if (op.gate() != GateType::kI) {
                binary_[op.qubit(i)] = BinaryValue::kUnknown;
              }
            }
            break;
        }
      }
    }
  }
}

void ChpCore::reset(Qubit q) {
  // A qubit whose binary value is still its last readout (or reset) sits
  // in that Z eigenstate: nothing since then has touched it but gates
  // commuting with Z_q.  Tableau::reset would re-measure it — a
  // deterministic measurement, which draws no randomness — and apply X
  // on a 1, so at most the X remains.
  switch (binary_[q]) {
    case BinaryValue::kZero:
      break;
    case BinaryValue::kOne:
      if (!plant::bug(16)) {  // mutation hook: the X after a 1 is dropped
        tableau_->apply_x(q);
      }
      break;
    case BinaryValue::kUnknown:
      tableau_->reset(q);
      break;
  }
  binary_[q] = BinaryValue::kZero;
}

BinaryState ChpCore::get_state() const { return binary_; }

std::optional<sv::StateVector> ChpCore::get_quantum_state() const {
  return std::nullopt;  // stabilizer backends expose no amplitudes
}

void ChpCore::save_state(journal::SnapshotWriter& out) const {
  out.tag("chp-core");
  out.write_u64(seed_);
  out.write_bool(tableau_ != nullptr);
  if (tableau_ != nullptr) {
    tableau_->save(out);
  }
  out.write_size(binary_.size());
  for (const BinaryValue v : binary_) {
    out.write_u8(static_cast<std::uint8_t>(v));
  }
  out.write_size(queue_.size());
  for (const Circuit& circuit : queue_) {
    out.write_circuit(circuit);
  }
}

void ChpCore::load_state(journal::SnapshotReader& in) {
  in.expect_tag("chp-core");
  seed_ = in.read_u64();
  if (in.read_bool()) {
    tableau_ = std::make_unique<stab::Tableau>(stab::Tableau::load(in));
  } else {
    tableau_.reset();
  }
  const std::size_t register_size = in.read_size();
  binary_.clear();
  for (std::size_t i = 0; i < register_size; ++i) {
    const std::uint8_t v = in.read_u8();
    if (v > static_cast<std::uint8_t>(BinaryValue::kUnknown)) {
      throw CheckpointError("chp core snapshot: invalid binary value");
    }
    binary_.push_back(static_cast<BinaryValue>(v));
  }
  const std::size_t queued = in.read_size();
  queue_.clear();
  for (std::size_t i = 0; i < queued; ++i) {
    queue_.push_back(in.read_circuit());
  }
  if (tableau_ != nullptr && tableau_->num_qubits() != binary_.size()) {
    throw CheckpointError("chp core snapshot: register size mismatch");
  }
}

}  // namespace qpf::arch
