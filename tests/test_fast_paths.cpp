// Slow references beside the fast single-shot window (DESIGN.md "Fast
// single-shot window").  Each fast path must agree exactly with the code
// it replaces: the threshold noise draw with the standard library's
// uniform_real_distribution, the sample/apply noise models with the
// original inline injectors, the Pauli-frame pass-through with
// PauliFrame::process, the cached ESM circuits with the layout, and the
// core's known-state reset with Tableau::reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "arch/biased_error_layer.h"
#include "arch/chp_core.h"
#include "arch/error_layer.h"
#include "arch/pauli_frame_layer.h"
#include "core/pauli_frame.h"
#include "fuzz/generator.h"
#include "fuzz/oracles.h"
#include "fuzz/seeds.h"
#include "qec/biased_noise.h"
#include "qec/depolarizing.h"
#include "qec/fault_sampler.h"
#include "qec/ninja_star.h"
#include "qec/sc17.h"
#include "seed_support.h"
#include "stabilizer/tableau.h"

namespace qpf {
namespace {

using qec::Bernoulli;
using qec::canonical_double;
using qec::ErrorTally;

constexpr std::uint64_t kMaxDraw = std::numeric_limits<std::uint64_t>::max();

// --- threshold draws ----------------------------------------------------

/// A generator that returns one chosen 64-bit value, so the standard
/// library's distribution can be evaluated at any draw.
struct FixedDraw {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return kMaxDraw; }
  result_type value;
  result_type operator()() { return value; }
};

double std_uniform(std::uint64_t x) {
  FixedDraw draw{x};
  std::uniform_real_distribution<double> uniform{0.0, 1.0};
  return uniform(draw);
}

/// Rates where p * 2^64 sits on, or one ulp either side of, a value the
/// integer-to-double conversion can produce.
std::vector<double> boundary_rates() {
  std::vector<double> rates;
  for (const std::uint64_t x :
       {std::uint64_t{1}, std::uint64_t{2047}, (std::uint64_t{1} << 53) + 1,
        std::uint64_t{5534023222112865}, std::uint64_t{184467440737095516},
        std::uint64_t{1} << 63, (std::uint64_t{1} << 63) + 1025,
        kMaxDraw - 2048, kMaxDraw - 1024, kMaxDraw}) {
    const double u = canonical_double(x);
    rates.push_back(u);
    rates.push_back(std::nextafter(u, 0.0));
    rates.push_back(std::min(1.0, std::nextafter(u, 2.0)));
  }
  return rates;
}

std::vector<double> headline_rates() {
  return {0.0, 1e-12, 3e-4, 1e-2, 0.5, std::nextafter(1.0, 0.0), 1.0};
}

TEST(FastPathDrawTest, CanonicalDoubleIsTheLibraryDraw) {
  const std::uint64_t seed = test::test_seed(2024);
  QPF_ANNOUNCE_SEED(seed);
  fuzz::SplitMix rng(seed);
  std::vector<std::uint64_t> draws = {0,
                                      1,
                                      2047,
                                      2048,
                                      std::uint64_t{1} << 53,
                                      (std::uint64_t{1} << 53) + 1,
                                      std::uint64_t{1} << 63,
                                      kMaxDraw - 1025,
                                      kMaxDraw - 1024,
                                      kMaxDraw - 1,
                                      kMaxDraw};
  for (int i = 0; i < 100000; ++i) {
    draws.push_back(rng.next() >> rng.below(64));
  }
  for (const std::uint64_t x : draws) {
    ASSERT_EQ(canonical_double(x), std_uniform(x)) << "draw " << x;
  }
}

TEST(FastPathDrawTest, ThresholdSitsExactlyOnTheLibraryBoundary) {
  std::vector<double> rates = headline_rates();
  for (const double p : boundary_rates()) {
    rates.push_back(p);
  }
  for (const double p : rates) {
    const Bernoulli flip(p);
    const std::uint64_t t = flip.threshold();
    // Monotone draw: T exact <=> the draw below T is accepted and T is not.
    if (t > 0) {
      EXPECT_LT(std_uniform(t - 1), p) << "p=" << p;
    }
    if (flip.always()) {
      EXPECT_LT(std_uniform(kMaxDraw), p) << "p=" << p;
    } else {
      EXPECT_GE(std_uniform(t), p) << "p=" << p;
    }
    // And the decision itself, draw by draw, around the threshold.
    for (int offset = -2; offset <= 2; ++offset) {
      if ((offset < 0 && t < static_cast<std::uint64_t>(-offset)) ||
          (offset > 0 && kMaxDraw - t < static_cast<std::uint64_t>(offset))) {
        continue;
      }
      const std::uint64_t x = t + static_cast<std::uint64_t>(offset);
      EXPECT_EQ(x < t || flip.always(), std_uniform(x) < p)
          << "p=" << p << " x=" << x;
    }
  }
}

TEST(FastPathDrawTest, TwinEnginesAgreeDrawForDraw) {
  std::vector<double> rates = headline_rates();
  for (const double p : boundary_rates()) {
    rates.push_back(p);
  }
  const std::uint64_t base = test::test_seed(1);
  QPF_ANNOUNCE_SEED(base);
  std::uint64_t seed = base;
  for (const double p : rates) {
    std::mt19937_64 fast_rng(seed);
    std::mt19937_64 slow_rng(seed);
    seed = test::stream_seed(seed, "twin");
    const Bernoulli flip(p);
    std::uniform_real_distribution<double> uniform{0.0, 1.0};
    std::size_t hits = 0;
    for (int i = 0; i < 1000000; ++i) {
      const bool fast = flip(fast_rng);
      const bool slow = uniform(slow_rng) < p;
      if (fast != slow) {
        FAIL() << "p=" << p << " disagrees at draw " << i;
      }
      hits += fast ? 1 : 0;
    }
    if (p == 0.0) {
      EXPECT_EQ(hits, 0u);
    }
    if (p == 1.0) {
      EXPECT_EQ(hits, 1000000u);
    }
  }
}

// --- noise models vs the original inline injectors ----------------------

/// The depolarizing injector as it was before the sample/apply split:
/// one uniform_real_distribution draw per location, output built slot by
/// slot.
Circuit reference_depolarizing(const Circuit& circuit, std::size_t num_qubits,
                               double p, std::mt19937_64& rng,
                               ErrorTally& tally) {
  std::uniform_real_distribution<double> uniform{0.0, 1.0};
  const auto flip = [&] { return uniform(rng) < p; };
  const auto pauli = [&] {
    static constexpr GateType kPaulis[] = {GateType::kX, GateType::kY,
                                           GateType::kZ};
    std::uniform_int_distribution<int> dist(0, 2);
    return kPaulis[dist(rng)];
  };
  Circuit out{circuit.name()};
  for (const TimeSlot& slot : circuit) {
    TimeSlot pre;
    TimeSlot post;
    std::vector<bool> busy(num_qubits, false);
    for (const Operation& op : slot) {
      for (int i = 0; i < op.arity(); ++i) {
        busy[op.qubit(i)] = true;
      }
      switch (category(op.gate())) {
        case GateCategory::kMeasurement:
          if (flip()) {
            pre.add(Operation{GateType::kX, op.qubit(0)});
            ++tally.measurement_flips;
          }
          break;
        case GateCategory::kInitialization:
          if (flip()) {
            post.add(Operation{pauli(), op.qubit(0)});
            ++tally.single_qubit;
          }
          break;
        default:
          if (op.arity() == 1) {
            if (flip()) {
              post.add(Operation{pauli(), op.qubit(0)});
              ++tally.single_qubit;
            }
          } else if (flip()) {
            std::uniform_int_distribution<int> dist(1, 15);
            const int combo = dist(rng);
            static constexpr GateType kOneQubit[] = {
                GateType::kI, GateType::kX, GateType::kY, GateType::kZ};
            if (kOneQubit[combo / 4] != GateType::kI) {
              post.add(Operation{kOneQubit[combo / 4], op.qubit(0)});
            }
            if (kOneQubit[combo % 4] != GateType::kI) {
              post.add(Operation{kOneQubit[combo % 4], op.qubit(1)});
            }
            ++tally.two_qubit;
          }
          break;
      }
    }
    for (Qubit q = 0; q < num_qubits; ++q) {
      if (!busy[q] && flip()) {
        post.add(Operation{pauli(), q});
        ++tally.idle;
      }
    }
    out.append_slot(std::move(pre));
    out.append_slot(slot);
    out.append_slot(std::move(post));
  }
  return out;
}

/// The biased injector as it was before the sample/apply split.
Circuit reference_biased(const Circuit& circuit, std::size_t num_qubits,
                         const qec::BiasedNoiseModel& config,
                         std::mt19937_64& rng, ErrorTally& tally) {
  std::uniform_real_distribution<double> uniform{0.0, 1.0};
  const double p = config.physical_error_rate();
  const double px = config.p_x();
  const double pz = config.p_z();
  const auto flip = [&](double probability) {
    return uniform(rng) < probability;
  };
  const auto pauli = [&] {
    const double u = uniform(rng) * (2.0 * px + pz);
    return u < px ? GateType::kX : (u < 2.0 * px ? GateType::kY : GateType::kZ);
  };
  Circuit out{circuit.name()};
  for (const TimeSlot& slot : circuit) {
    TimeSlot pre;
    TimeSlot post;
    std::vector<bool> busy(num_qubits, false);
    for (const Operation& op : slot) {
      for (int i = 0; i < op.arity(); ++i) {
        busy[op.qubit(i)] = true;
      }
      switch (category(op.gate())) {
        case GateCategory::kMeasurement:
          if (flip(p)) {
            pre.add(Operation{GateType::kX, op.qubit(0)});
            ++tally.measurement_flips;
          }
          break;
        case GateCategory::kInitialization:
          if (flip(p)) {
            post.add(Operation{pauli(), op.qubit(0)});
            ++tally.single_qubit;
          }
          break;
        default:
          if (op.arity() == 1) {
            if (flip(p)) {
              post.add(Operation{pauli(), op.qubit(0)});
              ++tally.single_qubit;
            }
          } else if (flip(p)) {
            GateType first = GateType::kI;
            GateType second = GateType::kI;
            while (first == GateType::kI && second == GateType::kI) {
              first = flip(0.5) ? pauli() : GateType::kI;
              second = flip(0.5) ? pauli() : GateType::kI;
            }
            if (first != GateType::kI) {
              post.add(Operation{first, op.qubit(0)});
            }
            if (second != GateType::kI) {
              post.add(Operation{second, op.qubit(1)});
            }
            ++tally.two_qubit;
          }
          break;
      }
    }
    for (Qubit q = 0; q < num_qubits; ++q) {
      if (!busy[q] && flip(p)) {
        post.add(Operation{pauli(), q});
        ++tally.idle;
      }
    }
    out.append_slot(std::move(pre));
    out.append_slot(slot);
    out.append_slot(std::move(post));
  }
  return out;
}

/// Core that records what reaches it, by value and by address.
class RecordingCore final : public arch::Core {
 public:
  void create_qubits(std::size_t count) override { n_ += count; }
  void remove_qubits() override { n_ = 0; }
  void add(const Circuit& circuit) override {
    circuits.push_back(circuit);
    addresses.push_back(&circuit);
  }
  void execute() override {}
  [[nodiscard]] arch::BinaryState get_state() const override {
    return arch::BinaryState(n_, arch::BinaryValue::kUnknown);
  }
  [[nodiscard]] std::optional<sv::StateVector> get_quantum_state()
      const override {
    return std::nullopt;
  }
  [[nodiscard]] std::size_t num_qubits() const override { return n_; }

  std::vector<Circuit> circuits;
  std::vector<const Circuit*> addresses;

 private:
  std::size_t n_ = 0;
};

/// A full SC17 register's ESM rounds, then fuzz circuits of every shape
/// (prep / measure, Paulis, two-qubit gates, T) on the same register.
std::vector<Circuit> noise_workload() {
  std::vector<Circuit> circuits;
  const qec::Sc17Layout layout;
  for (const qec::Orientation o :
       {qec::Orientation::kNormal, qec::Orientation::kRotated}) {
    for (const qec::DanceMode d : {qec::DanceMode::kAll, qec::DanceMode::kZOnly}) {
      circuits.push_back(layout.esm_circuit(0, o, d));
    }
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const fuzz::FuzzCase fc = fuzz::generate_case(seed, fuzz::GeneratorOptions{});
    circuits.push_back(fc.measured);
    circuits.push_back(fc.unitary_t);
    circuits.push_back(fc.stream);
  }
  return circuits;
}

void expect_same_tally(const ErrorTally& a, const ErrorTally& b) {
  EXPECT_EQ(a.single_qubit, b.single_qubit);
  EXPECT_EQ(a.two_qubit, b.two_qubit);
  EXPECT_EQ(a.measurement_flips, b.measurement_flips);
  EXPECT_EQ(a.idle, b.idle);
}

TEST(FastPathNoiseTest, DepolarizingMatchesTheInlineInjector) {
  const std::vector<Circuit> workload = noise_workload();
  const std::size_t n = qec::Sc17Layout::kNumQubits;
  for (const double p : {0.0, 3e-4, 1e-2, 0.3, 1.0}) {
    for (const std::uint64_t seed : {1ULL, 99ULL}) {
      qec::DepolarizingModel model(p, seed);
      std::mt19937_64 rng(seed);
      ErrorTally tally;
      for (int pass = 0; pass < 20; ++pass) {
        for (const Circuit& circuit : workload) {
          const Circuit want =
              reference_depolarizing(circuit, n, p, rng, tally);
          const Circuit got = model.inject(circuit, n);
          ASSERT_EQ(got, want) << "p=" << p << " seed=" << seed;
          ASSERT_EQ(got.name(), want.name());
        }
      }
      expect_same_tally(model.tally(), tally);
    }
  }
}

TEST(FastPathNoiseTest, ErrorLayerForwardsFaultFreeCircuitsThemselves) {
  const std::vector<Circuit> workload = noise_workload();
  const std::size_t n = qec::Sc17Layout::kNumQubits;
  for (const double p : {3e-4, 1e-2, 1.0}) {
    RecordingCore core;
    arch::ErrorLayer layer(&core, p, 5);
    layer.create_qubits(n);
    qec::DepolarizingModel model(p, 5);
    std::size_t untouched = 0;
    for (int pass = 0; pass < 20; ++pass) {
      for (const Circuit& circuit : workload) {
        const std::size_t faults_before = model.tally().total();
        const Circuit want = model.inject(circuit, n);
        layer.add(circuit);
        ASSERT_EQ(core.circuits.back(), want) << "p=" << p;
        // A circuit that drew no fault reaches the core as itself.
        const bool clean = model.tally().total() == faults_before;
        EXPECT_EQ(core.addresses.back() == &circuit, clean) << "p=" << p;
        untouched += clean ? 1 : 0;
      }
    }
    expect_same_tally(layer.tally(), model.tally());
    if (p == 3e-4) {
      EXPECT_GT(untouched, core.circuits.size() / 2);
    }
  }
}

TEST(FastPathNoiseTest, BiasedMatchesTheInlineInjector) {
  const std::vector<Circuit> workload = noise_workload();
  const std::size_t n = qec::Sc17Layout::kNumQubits;
  for (const double p : {0.0, 1e-3, 0.2, 1.0}) {
    for (const double eta : {0.5, 10.0, 1000.0}) {
      qec::BiasedNoiseModel model(p, eta, 17);
      RecordingCore core;
      arch::BiasedErrorLayer layer(&core, p, eta, 17);
      layer.create_qubits(n);
      std::mt19937_64 rng(17);
      ErrorTally tally;
      for (int pass = 0; pass < 10; ++pass) {
        for (const Circuit& circuit : workload) {
          const Circuit want = reference_biased(circuit, n, model, rng, tally);
          ASSERT_EQ(model.inject(circuit, n), want)
              << "p=" << p << " eta=" << eta;
          layer.add(circuit);
          ASSERT_EQ(core.circuits.back(), want);
        }
      }
      expect_same_tally(model.tally(), tally);
      expect_same_tally(layer.tally(), tally);
    }
  }
}

// --- Pauli frame pass-through vs process() -------------------------------

/// `circuit` without its Pauli and non-Clifford gates: what the frame
/// forwards as itself.
Circuit frame_transparent(const Circuit& circuit) {
  Circuit out{circuit.name()};
  for (const TimeSlot& slot : circuit) {
    TimeSlot kept;
    for (const Operation& op : slot) {
      const GateCategory c = category(op.gate());
      if (c != GateCategory::kPauli && c != GateCategory::kNonClifford) {
        kept.add(op);
      }
    }
    out.append_slot(std::move(kept));
  }
  return out;
}

void expect_same_frame(const pf::PauliFrame& a, const pf::PauliFrame& b) {
  ASSERT_EQ(a.num_qubits(), b.num_qubits());
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(a.stats().input_gates, b.stats().input_gates);
  EXPECT_EQ(a.stats().output_gates, b.stats().output_gates);
  EXPECT_EQ(a.stats().paulis_absorbed, b.stats().paulis_absorbed);
  EXPECT_EQ(a.stats().flush_gates_emitted, b.stats().flush_gates_emitted);
  EXPECT_EQ(a.stats().input_slots, b.stats().input_slots);
  EXPECT_EQ(a.stats().output_slots, b.stats().output_slots);
  EXPECT_EQ(a.health().checks, b.health().checks);
  EXPECT_EQ(a.health().detected, b.health().detected);
  EXPECT_EQ(a.health().corrected, b.health().corrected);
  EXPECT_EQ(a.health().uncorrectable, b.health().uncorrectable);
  EXPECT_EQ(a.health().recovery_resets, b.health().recovery_resets);
}

TEST(FastPathFrameTest, PassThroughMatchesProcessOnFuzzCircuits) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const fuzz::FuzzCase fc = fuzz::generate_case(seed, fuzz::GeneratorOptions{});
    for (const pf::Protection protection :
         {pf::Protection::kNone, pf::Protection::kParity,
          pf::Protection::kVote}) {
      pf::PauliFrame slow(fc.num_qubits, protection);
      fuzz::SplitMix records(seed);
      for (Qubit q = 0; q < fc.num_qubits; ++q) {
        slow.set_record(q, static_cast<pf::PauliRecord>(records.below(4)));
      }
      // One corrupted record exercises the guarded-read health path.
      slow.corrupt_record(0, static_cast<pf::PauliRecord>(records.below(4)));
      pf::PauliFrame fast = slow;
      for (const Circuit& source : {fc.measured, fc.unitary, fc.stream}) {
        const Circuit circuit = frame_transparent(source);
        const Circuit processed = slow.process(circuit);
        ASSERT_TRUE(fast.pass_through(circuit)) << "seed " << seed;
        EXPECT_EQ(processed, circuit) << "seed " << seed;
        EXPECT_EQ(processed.name(), circuit.name());
        expect_same_frame(fast, slow);
      }
    }
  }
}

TEST(FastPathFrameTest, PassThroughDeclinesPaulisAndNonCliffords) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const fuzz::FuzzCase fc = fuzz::generate_case(seed, fuzz::GeneratorOptions{});
    pf::PauliFrame frame(fc.num_qubits);
    frame.set_record(0, pf::PauliRecord::kX);
    const pf::PauliFrame before = frame;
    for (const Circuit& circuit : {fc.unitary, fc.unitary_t, fc.stream}) {
      if (frame_transparent(circuit) == circuit) {
        continue;  // nothing to decline
      }
      EXPECT_FALSE(frame.pass_through(circuit)) << "seed " << seed;
      expect_same_frame(frame, before);
    }
  }
}

TEST(FastPathFrameTest, LayerForwardsAnEsmRoundItself) {
  RecordingCore core;
  arch::PauliFrameLayer layer(&core);
  layer.create_qubits(qec::Sc17Layout::kNumQubits);
  const qec::Sc17Layout layout;
  const Circuit esm =
      layout.esm_circuit(0, qec::Orientation::kNormal, qec::DanceMode::kAll);
  layer.add(esm);
  ASSERT_EQ(core.addresses.size(), 1u);
  EXPECT_EQ(core.addresses.back(), &esm);
  Circuit correction{"window-corrections"};
  correction.append(GateType::kX, 0);
  layer.add(correction);
  // Rewritten by process(): the Pauli is absorbed, an empty circuit goes on.
  ASSERT_EQ(core.circuits.size(), 2u);
  EXPECT_TRUE(core.circuits.back().empty());
  EXPECT_EQ(layer.frame().record(0), pf::PauliRecord::kX);
}

// --- cached ESM circuits --------------------------------------------------

TEST(FastPathEsmTest, CachedRoundsMatchTheLayoutInEveryState) {
  const qec::Sc17Layout layout;
  qec::NinjaStar star(17, &layout);
  const auto expect_layout = [&] {
    EXPECT_EQ(star.esm_circuit(),
              layout.esm_circuit(17, star.orientation(), star.dance_mode()));
    EXPECT_EQ(star.esm_circuit().name(),
              layout.esm_circuit(17, star.orientation(), star.dance_mode())
                  .name());
    EXPECT_EQ(star.esm_measurement_order(),
              layout.esm_measurement_order(star.orientation(),
                                           star.dance_mode()));
  };
  expect_layout();  // initial: normal, Z only
  star.on_reset();
  expect_layout();  // normal, all
  star.on_logical_h();
  expect_layout();  // rotated, all
  star.on_measured(+1);
  expect_layout();  // rotated, Z only
  const qec::NinjaStar copy = star;
  EXPECT_EQ(copy.esm_circuit(), star.esm_circuit());
}

// --- known-state reset vs Tableau::reset ----------------------------------

void expect_same_tableau(const stab::Tableau& a, const stab::Tableau& b) {
  ASSERT_EQ(a.num_qubits(), b.num_qubits());
  for (std::size_t i = 0; i < a.num_qubits(); ++i) {
    EXPECT_EQ(a.stabilizer(i), b.stabilizer(i)) << "row " << i;
    EXPECT_EQ(a.destabilizer(i), b.destabilizer(i)) << "row " << i;
    stab::PauliString z(a.num_qubits());
    z.set_pauli(i, stab::Pauli::kZ);
    EXPECT_EQ(a.expectation(z), b.expectation(z)) << "Z_" << i;
  }
}

TEST(FastPathResetTest, KnownStateResetMatchesTableauReset) {
  // |1> read out, then reset: the core skips the re-measurement but
  // must still land in |0>; a Bell half read out at random, likewise.
  Circuit program;
  program.append(GateType::kX, 0);
  program.append(GateType::kH, 1);
  program.append(GateType::kCnot, 1, 2);
  program.append_in_new_slot(Operation{GateType::kMeasureZ, 0});
  program.append(GateType::kMeasureZ, 1);
  program.append_in_new_slot(Operation{GateType::kPrepZ, 0});
  program.append(GateType::kPrepZ, 1);
  program.append(GateType::kPrepZ, 3);  // never touched: known |0>
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    arch::ChpCore core(seed);
    core.create_qubits(4);
    arch::run(core, program);
    stab::Tableau reference(4, seed);
    reference.execute(program);
    expect_same_tableau(*core.tableau(), reference);
    // Later readouts agree too.
    Circuit readout;
    for (Qubit q = 0; q < 4; ++q) {
      readout.append(GateType::kMeasureZ, q);
    }
    arch::run(core, readout);
    (void)reference.take_measurements();
    reference.execute(readout);
    const std::vector<stab::MeasureResult> want = reference.take_measurements();
    const arch::BinaryState got = core.get_state();
    for (Qubit q = 0; q < 4; ++q) {
      EXPECT_EQ(got[q] == arch::BinaryValue::kOne, want[q].value)
          << "seed " << seed << " qubit " << q;
    }
    EXPECT_EQ(got[0], arch::BinaryValue::kZero);
    EXPECT_EQ(got[1], arch::BinaryValue::kZero);
  }
}

TEST(FastPathResetTest, FuzzCircuitsAgreeWithTheTableau) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const fuzz::FuzzCase fc = fuzz::generate_case(seed, fuzz::GeneratorOptions{});
    const fuzz::OracleOutcome outcome =
        fuzz::check_chp_reset(fc.measured, seed, fuzz::OracleTuning{});
    EXPECT_TRUE(outcome.passed) << "seed " << seed << ": " << outcome.detail;
  }
}

}  // namespace
}  // namespace qpf
