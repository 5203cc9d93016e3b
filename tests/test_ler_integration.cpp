// End-to-end integration of the §5.3 LER experiment machinery on the
// Fig 5.8 control stack.
#include "arch/control_stack.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "ler_common.h"

namespace qpf::arch {
namespace {

using qec::CheckType;

// One window + diagnostic step of the Listing 5.7 loop; returns whether
// a logical flip was observed and updates `expected_sign`.
bool window_step(LerStack& stack, CheckType basis, int& expected_sign) {
  stack.ninja().run_window(0);
  stack.set_diagnostic_mode(true);
  bool flipped = false;
  if (!stack.ninja().has_observable_errors(0)) {
    const int sign = stack.ninja().measure_logical_stabilizer(0, basis);
    flipped = sign != expected_sign;
    expected_sign = sign;
  }
  stack.set_diagnostic_mode(false);
  return flipped;
}

TEST(LerStackTest, ErrorFreeRunNeverFlips) {
  LerStack::Config config;
  config.physical_error_rate = 0.0;
  config.with_pauli_frame = true;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  int expected = +1;
  for (int w = 0; w < 20; ++w) {
    EXPECT_FALSE(window_step(stack, CheckType::kZ, expected)) << w;
  }
}

TEST(LerStackTest, NoiseProducesLogicalErrorsAboveThreshold) {
  // Far above the pseudo-threshold the logical qubit fails fast.
  LerStack::Config config;
  config.physical_error_rate = 0.01;
  config.with_pauli_frame = false;
  config.seed = 11;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  int expected = +1;
  int flips = 0;
  for (int w = 0; w < 300 && flips < 3; ++w) {
    flips += window_step(stack, CheckType::kZ, expected) ? 1 : 0;
  }
  EXPECT_GE(flips, 3);
}

TEST(LerStackTest, PauliFrameAbsorbsCorrections) {
  LerStack::Config config;
  config.physical_error_rate = 0.01;
  config.with_pauli_frame = true;
  config.seed = 17;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  stack.reset_counters();
  int expected = +1;
  for (int w = 0; w < 100; ++w) {
    (void)window_step(stack, CheckType::kZ, expected);
  }
  // At this rate some corrections must have been issued and absorbed.
  EXPECT_GT(stack.gates_saved_fraction(), 0.0);
  EXPECT_GT(stack.slots_saved_fraction(), 0.0);
  // The §5.3.2 ceiling: at most one slot in 17 can be saved.
  EXPECT_LT(stack.slots_saved_fraction(), 1.0 / 17.0 + 1e-9);
}

TEST(LerStackTest, WithoutFrameNothingIsSaved) {
  LerStack::Config config;
  config.physical_error_rate = 0.01;
  config.with_pauli_frame = false;
  config.seed = 17;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.set_diagnostic_mode(false);
  stack.reset_counters();
  int expected = +1;
  for (int w = 0; w < 50; ++w) {
    (void)window_step(stack, CheckType::kZ, expected);
  }
  EXPECT_DOUBLE_EQ(stack.gates_saved_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(stack.slots_saved_fraction(), 0.0);
  // Noise was injected below the counters.
  EXPECT_GT(stack.error_tally().total(), 0u);
}

TEST(LerStackTest, DiagnosticModeIsErrorAndCounterFree) {
  LerStack::Config config;
  config.physical_error_rate = 1.0;  // would corrupt everything if armed
  config.with_pauli_frame = true;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kZ);
  EXPECT_FALSE(stack.ninja().has_observable_errors(0));
  EXPECT_EQ(stack.ninja().measure_logical_stabilizer(0, CheckType::kZ), +1);
  EXPECT_EQ(stack.error_tally().total(), 0u);
  EXPECT_EQ(stack.counters_above_frame().operations, 0u);
}

TEST(LerStackTest, PlusBasisExperimentRuns) {
  LerStack::Config config;
  config.physical_error_rate = 0.02;
  config.with_pauli_frame = true;
  config.seed = 23;
  LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, CheckType::kX);
  EXPECT_EQ(stack.ninja().measure_logical_stabilizer(0, CheckType::kX), +1);
  stack.set_diagnostic_mode(false);
  int expected = +1;
  int flips = 0;
  for (int w = 0; w < 200 && flips < 1; ++w) {
    flips += window_step(stack, CheckType::kX, expected) ? 1 : 0;
  }
  EXPECT_GE(flips, 1);  // Z_L errors detected in the X basis
}

TEST(LerStackTest, TwoLogicalQubitsCoexist) {
  LerStack::Config config;
  config.physical_error_rate = 0.0;
  config.logical_qubits = 2;
  LerStack stack(config);
  stack.ninja().initialize(0, CheckType::kZ);
  stack.ninja().initialize(1, CheckType::kZ);
  Circuit logical;
  logical.append(GateType::kX, 0);
  logical.append(GateType::kCnot, 0, 1);
  stack.ninja().add(logical);
  stack.ninja().execute();
  EXPECT_EQ(stack.ninja().measure_logical(1), -1);
}

// Golden pin of the physics stream.  Every row was recorded from a
// LerTrial of the engine before the fast single-shot window (threshold
// noise draws, pass-through noise and frame layers, cached ESM circuits,
// known-state resets) landed; that engine must reproduce each trial
// exactly: windows, logical errors, both saved fractions as exact
// doubles, the ErrorTally and the three CounterLayer counts.  A change
// that moves the noise stream on purpose re-records this table and
// says so.
struct GoldenTrial {
  double per;
  char basis;  // 'x' or 'z'
  int frame;
  std::uint64_t base_seed;
  int trial;  // index in the base seed's next_trial_seed chain
  std::size_t windows;
  std::size_t logical_errors;
  double saved_gates;
  double saved_slots;
  std::size_t tally[4];  // single-qubit, two-qubit, measurement, idle
  std::size_t above[3];  // operations, time slots, circuits
  std::size_t below[3];
  std::size_t physical[3];
};

constexpr std::size_t kGoldenWindows = 400;

// p in {3e-4, 1e-3, 1e-2} x basis x frame x base seed {1, 7} x 3 trials.
constexpr GoldenTrial kGolden[] = {
    {3e-4, 'x', 0, 1, 0, 400, 0, 0x0p+0, 0x0p+0, {4, 3, 4, 16}, {38412, 6412, 812}, {38412, 6412, 812}, {38442, 6439, 812}},
    {3e-4, 'x', 0, 1, 1, 400, 0, 0x0p+0, 0x0p+0, {1, 4, 2, 17}, {38419, 6415, 815}, {38419, 6415, 815}, {38446, 6439, 815}},
    {3e-4, 'x', 0, 1, 2, 400, 0, 0x0p+0, 0x0p+0, {6, 6, 1, 11}, {38417, 6415, 815}, {38417, 6415, 815}, {38444, 6439, 815}},
    {3e-4, 'x', 0, 7, 0, 400, 0, 0x0p+0, 0x0p+0, {8, 7, 2, 16}, {38414, 6414, 814}, {38414, 6414, 814}, {38450, 6447, 814}},
    {3e-4, 'x', 0, 7, 1, 400, 0, 0x0p+0, 0x0p+0, {4, 11, 3, 21}, {38432, 6425, 825}, {38432, 6425, 825}, {38478, 6464, 825}},
    {3e-4, 'x', 0, 7, 2, 400, 0, 0x0p+0, 0x0p+0, {2, 7, 4, 12}, {38417, 6413, 813}, {38417, 6413, 813}, {38446, 6438, 813}},
    {3e-4, 'x', 1, 1, 0, 400, 0, 0x1.b4b985cf97efdp-12, 0x1.1e181b75be107p-9, {5, 7, 3, 12}, {38416, 6414, 814}, {38400, 6400, 814}, {38433, 6427, 814}},
    {3e-4, 'x', 1, 1, 1, 400, 1, 0x1.10ecad3e3bf8p-11, 0x1.327b4f9d082e5p-9, {5, 7, 1, 11}, {38420, 6415, 815}, {38400, 6400, 815}, {38429, 6424, 815}},
    {3e-4, 'x', 1, 1, 2, 400, 0, 0x1.d0020698da326p-12, 0x1.327b4f9d082e5p-9, {4, 12, 1, 7}, {38417, 6415, 815}, {38400, 6400, 815}, {38431, 6424, 815}},
    {3e-4, 'x', 1, 7, 0, 400, 0, 0x1.7061880b5a1dep-11, 0x1.0929abb3d4566p-8, {5, 6, 1, 21}, {38427, 6426, 826}, {38400, 6400, 826}, {38436, 6433, 826}},
    {3e-4, 'x', 1, 7, 1, 400, 1, 0x1.c22c5268bffecp-11, 0x1.e9af060eaa3dep-9, {8, 7, 1, 23}, {38433, 6424, 824}, {38400, 6400, 824}, {38443, 6439, 824}},
    {3e-4, 'x', 1, 7, 2, 400, 0, 0x1.9970a7ef34e12p-12, 0x1.09b3469dd6e23p-9, {2, 8, 3, 12}, {38415, 6413, 813}, {38400, 6400, 813}, {38430, 6425, 813}},
    {3e-4, 'z', 0, 1, 0, 400, 0, 0x0p+0, 0x0p+0, {4, 3, 4, 16}, {38412, 6412, 812}, {38412, 6412, 812}, {38442, 6439, 812}},
    {3e-4, 'z', 0, 1, 1, 400, 0, 0x0p+0, 0x0p+0, {1, 4, 2, 17}, {38419, 6415, 815}, {38419, 6415, 815}, {38446, 6439, 815}},
    {3e-4, 'z', 0, 1, 2, 400, 0, 0x0p+0, 0x0p+0, {6, 6, 1, 11}, {38417, 6415, 815}, {38417, 6415, 815}, {38444, 6439, 815}},
    {3e-4, 'z', 0, 7, 0, 400, 0, 0x0p+0, 0x0p+0, {8, 7, 2, 16}, {38414, 6414, 814}, {38414, 6414, 814}, {38450, 6447, 814}},
    {3e-4, 'z', 0, 7, 1, 400, 1, 0x0p+0, 0x0p+0, {4, 11, 3, 21}, {38432, 6425, 825}, {38432, 6425, 825}, {38478, 6464, 825}},
    {3e-4, 'z', 0, 7, 2, 400, 1, 0x0p+0, 0x0p+0, {2, 7, 4, 12}, {38417, 6413, 813}, {38417, 6413, 813}, {38446, 6438, 813}},
    {3e-4, 'z', 1, 1, 0, 400, 0, 0x1.b4b985cf97efdp-12, 0x1.1e181b75be107p-9, {5, 7, 3, 12}, {38416, 6414, 814}, {38400, 6400, 814}, {38433, 6427, 814}},
    {3e-4, 'z', 1, 1, 1, 400, 0, 0x1.10ecad3e3bf8p-11, 0x1.327b4f9d082e5p-9, {5, 7, 1, 11}, {38420, 6415, 815}, {38400, 6400, 815}, {38429, 6424, 815}},
    {3e-4, 'z', 1, 1, 2, 400, 1, 0x1.d0020698da326p-12, 0x1.327b4f9d082e5p-9, {4, 12, 1, 7}, {38417, 6415, 815}, {38400, 6400, 815}, {38431, 6424, 815}},
    {3e-4, 'z', 1, 7, 0, 400, 0, 0x1.7061880b5a1dep-11, 0x1.0929abb3d4566p-8, {5, 6, 1, 21}, {38427, 6426, 826}, {38400, 6400, 826}, {38436, 6433, 826}},
    {3e-4, 'z', 1, 7, 1, 400, 0, 0x1.c22c5268bffecp-11, 0x1.e9af060eaa3dep-9, {8, 7, 1, 23}, {38433, 6424, 824}, {38400, 6400, 824}, {38443, 6439, 824}},
    {3e-4, 'z', 1, 7, 2, 400, 0, 0x1.9970a7ef34e12p-12, 0x1.09b3469dd6e23p-9, {2, 8, 3, 12}, {38415, 6413, 813}, {38400, 6400, 813}, {38430, 6425, 813}},
    {1e-3, 'x', 0, 1, 0, 400, 0, 0x0p+0, 0x0p+0, {13, 17, 8, 42}, {38458, 6446, 846}, {38458, 6446, 846}, {38549, 6526, 846}},
    {1e-3, 'x', 0, 1, 1, 400, 2, 0x0p+0, 0x0p+0, {13, 25, 6, 45}, {38462, 6450, 850}, {38462, 6450, 850}, {38566, 6538, 850}},
    {1e-3, 'x', 0, 1, 2, 400, 2, 0x0p+0, 0x0p+0, {9, 25, 3, 67}, {38477, 6461, 861}, {38477, 6461, 861}, {38596, 6565, 861}},
    {1e-3, 'x', 0, 7, 0, 400, 3, 0x0p+0, 0x0p+0, {14, 23, 4, 62}, {38477, 6460, 860}, {38477, 6460, 860}, {38597, 6563, 860}},
    {1e-3, 'x', 0, 7, 1, 400, 1, 0x0p+0, 0x0p+0, {18, 22, 2, 61}, {38487, 6469, 869}, {38487, 6469, 869}, {38606, 6572, 869}},
    {1e-3, 'x', 0, 7, 2, 400, 2, 0x0p+0, 0x0p+0, {12, 26, 2, 45}, {38454, 6450, 850}, {38454, 6450, 850}, {38554, 6534, 850}},
    {1e-3, 'x', 1, 1, 0, 400, 1, 0x1.98f603fe670ap-10, 0x1.d3adb62184e29p-8, {13, 16, 3, 48}, {38460, 6446, 846}, {38400, 6400, 846}, {38490, 6480, 846}},
    {1e-3, 'x', 1, 1, 1, 400, 3, 0x1.a69230cd1bdc9p-10, 0x1.fc07f01fc07fp-8, {14, 23, 6, 46}, {38462, 6450, 850}, {38400, 6400, 850}, {38506, 6489, 850}},
    {1e-3, 'x', 1, 1, 2, 400, 2, 0x1.0d19870918393p-9, 0x1.3f6a6eabab8d2p-7, {10, 19, 10, 62}, {38479, 6463, 863}, {38400, 6400, 863}, {38511, 6501, 863}},
    {1e-3, 'x', 1, 7, 0, 400, 5, 0x1.9fc425fe33ee5p-10, 0x1.030e3f18e1b8ap-7, {21, 17, 6, 58}, {38461, 6451, 851}, {38400, 6400, 851}, {38510, 6502, 851}},
    {1e-3, 'x', 1, 7, 1, 400, 1, 0x1.0d19870918393p-9, 0x1.3f6a6eabab8d2p-7, {16, 26, 6, 55}, {38479, 6463, 863}, {38400, 6400, 863}, {38519, 6503, 863}},
    {1e-3, 'x', 1, 7, 2, 400, 4, 0x1.848b12d500fa8p-10, 0x1.ab46a80473671p-8, {10, 15, 5, 52}, {38457, 6442, 842}, {38400, 6400, 842}, {38491, 6482, 842}},
    {1e-3, 'z', 0, 1, 0, 400, 2, 0x0p+0, 0x0p+0, {13, 17, 8, 42}, {38458, 6446, 846}, {38458, 6446, 846}, {38549, 6526, 846}},
    {1e-3, 'z', 0, 1, 1, 400, 2, 0x0p+0, 0x0p+0, {13, 25, 6, 45}, {38462, 6450, 850}, {38462, 6450, 850}, {38566, 6538, 850}},
    {1e-3, 'z', 0, 1, 2, 400, 3, 0x0p+0, 0x0p+0, {9, 25, 3, 67}, {38477, 6461, 861}, {38477, 6461, 861}, {38596, 6565, 861}},
    {1e-3, 'z', 0, 7, 0, 400, 1, 0x0p+0, 0x0p+0, {14, 23, 4, 62}, {38477, 6460, 860}, {38477, 6460, 860}, {38597, 6563, 860}},
    {1e-3, 'z', 0, 7, 1, 400, 2, 0x0p+0, 0x0p+0, {18, 22, 2, 61}, {38487, 6469, 869}, {38487, 6469, 869}, {38606, 6572, 869}},
    {1e-3, 'z', 0, 7, 2, 400, 0, 0x0p+0, 0x0p+0, {12, 26, 2, 45}, {38454, 6450, 850}, {38454, 6450, 850}, {38554, 6534, 850}},
    {1e-3, 'z', 1, 1, 0, 400, 0, 0x1.98f603fe670ap-10, 0x1.d3adb62184e29p-8, {13, 16, 3, 48}, {38460, 6446, 846}, {38400, 6400, 846}, {38490, 6480, 846}},
    {1e-3, 'z', 1, 1, 1, 400, 1, 0x1.a69230cd1bdc9p-10, 0x1.fc07f01fc07fp-8, {14, 23, 6, 46}, {38462, 6450, 850}, {38400, 6400, 850}, {38506, 6489, 850}},
    {1e-3, 'z', 1, 1, 2, 400, 2, 0x1.0d19870918393p-9, 0x1.3f6a6eabab8d2p-7, {10, 19, 10, 62}, {38479, 6463, 863}, {38400, 6400, 863}, {38511, 6501, 863}},
    {1e-3, 'z', 1, 7, 0, 400, 0, 0x1.9fc425fe33ee5p-10, 0x1.030e3f18e1b8ap-7, {21, 17, 6, 58}, {38461, 6451, 851}, {38400, 6400, 851}, {38510, 6502, 851}},
    {1e-3, 'z', 1, 7, 1, 400, 4, 0x1.0d19870918393p-9, 0x1.3f6a6eabab8d2p-7, {16, 26, 6, 55}, {38479, 6463, 863}, {38400, 6400, 863}, {38519, 6503, 863}},
    {1e-3, 'z', 1, 7, 2, 400, 0, 0x1.848b12d500fa8p-10, 0x1.ab46a80473671p-8, {10, 15, 5, 52}, {38457, 6442, 842}, {38400, 6400, 842}, {38491, 6482, 842}},
    {1e-2, 'x', 0, 1, 0, 400, 25, 0x0p+0, 0x0p+0, {134, 167, 71, 555}, {38699, 6588, 988}, {38699, 6588, 988}, {39729, 7450, 988}},
    {1e-2, 'x', 0, 1, 1, 400, 25, 0x0p+0, 0x0p+0, {130, 185, 71, 515}, {38713, 6599, 999}, {38713, 6599, 999}, {39722, 7436, 999}},
    {1e-2, 'x', 0, 1, 2, 400, 24, 0x0p+0, 0x0p+0, {151, 210, 66, 550}, {38733, 6608, 1008}, {38733, 6608, 1008}, {39827, 7524, 1008}},
    {1e-2, 'x', 0, 7, 0, 400, 26, 0x0p+0, 0x0p+0, {121, 184, 67, 577}, {38705, 6594, 994}, {38705, 6594, 994}, {39765, 7488, 994}},
    {1e-2, 'x', 0, 7, 1, 400, 32, 0x0p+0, 0x0p+0, {116, 184, 66, 552}, {38698, 6590, 990}, {38698, 6590, 990}, {39724, 7446, 990}},
    {1e-2, 'x', 0, 7, 2, 400, 22, 0x0p+0, 0x0p+0, {122, 218, 81, 484}, {38678, 6583, 983}, {38678, 6583, 983}, {39721, 7437, 983}},
    {1e-2, 'x', 1, 1, 0, 400, 27, 0x1.016032cc3febbp-7, 0x1.f07c1f07c1f08p-6, {134, 190, 58, 513}, {38704, 6600, 1000}, {38400, 6400, 1000}, {39410, 7239, 1000}},
    {1e-2, 'x', 1, 1, 1, 400, 23, 0x1.e7dc6d42b322fp-8, 0x1.d12126bf7239p-6, {119, 191, 81, 488}, {38688, 6587, 987}, {38400, 6400, 987}, {39395, 7228, 987}},
    {1e-2, 'x', 1, 1, 2, 400, 27, 0x1.05933c3727fa7p-7, 0x1.df9dd712fcc6fp-6, {150, 219, 60, 515}, {38709, 6593, 993}, {38400, 6400, 993}, {39485, 7279, 993}},
    {1e-2, 'x', 1, 7, 0, 400, 26, 0x1.e2d10c686ccaep-8, 0x1.bdc5b5d596151p-6, {130, 197, 71, 511}, {38685, 6579, 979}, {38400, 6400, 979}, {39423, 7259, 979}},
    {1e-2, 'x', 1, 7, 1, 400, 26, 0x1.fdb61606ff9c1p-8, 0x1.d12126bf7239p-6, {121, 186, 57, 523}, {38701, 6587, 987}, {38400, 6400, 987}, {39391, 7227, 987}},
    {1e-2, 'x', 1, 7, 2, 400, 32, 0x1.fdb61606ff9c1p-8, 0x1.ebab42f7da21bp-6, {110, 197, 67, 497}, {38701, 6598, 998}, {38400, 6400, 998}, {39389, 7210, 998}},
    {1e-2, 'z', 0, 1, 0, 400, 24, 0x0p+0, 0x0p+0, {134, 167, 71, 555}, {38699, 6588, 988}, {38699, 6588, 988}, {39729, 7450, 988}},
    {1e-2, 'z', 0, 1, 1, 400, 25, 0x0p+0, 0x0p+0, {130, 185, 71, 515}, {38713, 6599, 999}, {38713, 6599, 999}, {39722, 7436, 999}},
    {1e-2, 'z', 0, 1, 2, 400, 29, 0x0p+0, 0x0p+0, {151, 210, 66, 550}, {38733, 6608, 1008}, {38733, 6608, 1008}, {39827, 7524, 1008}},
    {1e-2, 'z', 0, 7, 0, 400, 24, 0x0p+0, 0x0p+0, {121, 184, 67, 577}, {38705, 6594, 994}, {38705, 6594, 994}, {39765, 7488, 994}},
    {1e-2, 'z', 0, 7, 1, 400, 32, 0x0p+0, 0x0p+0, {116, 184, 66, 552}, {38698, 6590, 990}, {38698, 6590, 990}, {39724, 7446, 990}},
    {1e-2, 'z', 0, 7, 2, 400, 19, 0x0p+0, 0x0p+0, {122, 218, 81, 484}, {38678, 6583, 983}, {38678, 6583, 983}, {39721, 7437, 983}},
    {1e-2, 'z', 1, 1, 0, 400, 29, 0x1.016032cc3febbp-7, 0x1.f07c1f07c1f08p-6, {134, 190, 58, 513}, {38704, 6600, 1000}, {38400, 6400, 1000}, {39410, 7239, 1000}},
    {1e-2, 'z', 1, 1, 1, 400, 30, 0x1.e7dc6d42b322fp-8, 0x1.d12126bf7239p-6, {119, 191, 81, 488}, {38688, 6587, 987}, {38400, 6400, 987}, {39395, 7228, 987}},
    {1e-2, 'z', 1, 1, 2, 400, 32, 0x1.05933c3727fa7p-7, 0x1.df9dd712fcc6fp-6, {150, 219, 60, 515}, {38709, 6593, 993}, {38400, 6400, 993}, {39485, 7279, 993}},
    {1e-2, 'z', 1, 7, 0, 400, 21, 0x1.e2d10c686ccaep-8, 0x1.bdc5b5d596151p-6, {130, 197, 71, 511}, {38685, 6579, 979}, {38400, 6400, 979}, {39423, 7259, 979}},
    {1e-2, 'z', 1, 7, 1, 400, 25, 0x1.fdb61606ff9c1p-8, 0x1.d12126bf7239p-6, {121, 186, 57, 523}, {38701, 6587, 987}, {38400, 6400, 987}, {39391, 7227, 987}},
    {1e-2, 'z', 1, 7, 2, 400, 29, 0x1.fdb61606ff9c1p-8, 0x1.ebab42f7da21bp-6, {110, 197, 67, 497}, {38701, 6598, 998}, {38400, 6400, 998}, {39389, 7210, 998}},
};

void expect_counters(const Counters& c, const std::size_t (&want)[3],
                     const char* which) {
  EXPECT_EQ(c.operations, want[0]) << which;
  EXPECT_EQ(c.time_slots, want[1]) << which;
  EXPECT_EQ(c.circuits, want[2]) << which;
}

TEST(LerGoldenTest, TrialsMatchThePinnedPhysicsStream) {
  ASSERT_EQ(std::size(kGolden), 72u);
  for (const GoldenTrial& pin : kGolden) {
    std::uint64_t seed = pin.base_seed;
    for (int t = 0; t <= pin.trial; ++t) {
      seed = bench::next_trial_seed(seed);
    }
    bench::LerConfig config;
    config.physical_error_rate = pin.per;
    config.with_pauli_frame = pin.frame != 0;
    config.basis = pin.basis == 'x' ? CheckType::kX : CheckType::kZ;
    config.target_logical_errors = kGoldenWindows + 1;
    config.max_windows = kGoldenWindows;
    config.seed = seed;
    bench::LerTrial trial(config);
    while (!trial.done()) {
      trial.step();
    }
    SCOPED_TRACE(testing::Message()
                 << "p=" << pin.per << " basis=" << pin.basis
                 << " frame=" << pin.frame << " seed=" << pin.base_seed
                 << " trial=" << pin.trial);
    const bench::LerRun run = trial.result();
    EXPECT_EQ(run.windows, pin.windows);
    EXPECT_EQ(run.logical_errors, pin.logical_errors);
    EXPECT_EQ(run.saved_gates_fraction, pin.saved_gates);
    EXPECT_EQ(run.saved_slots_fraction, pin.saved_slots);
    const qec::ErrorTally& tally = trial.stack().error_tally();
    EXPECT_EQ(tally.single_qubit, pin.tally[0]);
    EXPECT_EQ(tally.two_qubit, pin.tally[1]);
    EXPECT_EQ(tally.measurement_flips, pin.tally[2]);
    EXPECT_EQ(tally.idle, pin.tally[3]);
    expect_counters(trial.stack().counters_above_frame(), pin.above, "above");
    expect_counters(trial.stack().counters_below_frame(), pin.below, "below");
    expect_counters(trial.stack().counters_physical(), pin.physical,
                    "physical");
  }
}

}  // namespace
}  // namespace qpf::arch
