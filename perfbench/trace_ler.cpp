// trace-ler: the traced Fig 5.8 chain.
//
// Rebuilds the LerStack chain from its public classes with a forwarding
// Probe between every pair of elements, runs the Listing 5.7 loop, and
// splits each window into per-element self time (an element's span minus
// the spans of the probe below it, minus the calibrated cost of the probe
// crossings that land on it) and unattributed loop glue.  The same trials
// then run untraced through bench::LerTrial; the traced run must
// reproduce its windows, logical errors, ErrorTally and the three
// CounterLayer counts exactly, and its self times plus glue must account
// for the untraced window time within kAccountTolerance.
// Components that run inside a window (noise injection, ESM circuit
// build, window decode) are timed by calling the same public functions
// directly on the inputs the traced windows observed.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/chp_core.h"
#include "arch/counter_layer.h"
#include "arch/error_layer.h"
#include "arch/ninja_star_layer.h"
#include "arch/pauli_frame_layer.h"
#include "common.h"
#include "ler_common.h"
#include "qec/depolarizing.h"

namespace perfbench {
namespace {

using qpf::Circuit;
using qpf::GateType;
using qpf::arch::BinaryState;
using qpf::arch::BinaryValue;
using qpf::arch::Core;
using qpf::qec::Syndrome;

enum Phase : int { kWindow = 0, kDiag = 1, kPhases = 2, kAll = 2 };

/// Largest relative gap allowed between the traced window with the
/// tracer's own cost taken out (self times + glue) and the untraced
/// window of the same trials.
constexpr double kAccountTolerance = 0.10;

/// Run-wide trace state shared by every probe of one chain.
struct Tracer {
  int phase = kWindow;
  bool recording = false;
  std::uint64_t calls = 0;
};

/// Forwarding element that times every add / execute / get_state call
/// into the element below it.  Observers run outside the timed span and
/// their own time is kept apart, so it is not charged to any layer.  The
/// rest of a crossing's cost (dispatch, clock reads, bookkeeping) falls
/// inside the spans around it; ProbeCost calibrates it so it can be taken
/// out again.
class Probe final : public qpf::arch::Layer {
 public:
  Probe(Core* lower, Tracer& tracer) : Layer(lower), tracer_(tracer) {}

  void add(const Circuit& circuit) override {
    const Clock::time_point start = Clock::now();
    lower().add(circuit);
    const Clock::time_point end = Clock::now();
    charge(start, end);
    if (on_add && tracer_.recording) {
      on_add(circuit);
      observe_ns[tracer_.phase] += elapsed_ns(end, Clock::now());
    }
  }

  void execute() override {
    const Clock::time_point start = Clock::now();
    lower().execute();
    charge(start, Clock::now());
  }

  [[nodiscard]] BinaryState get_state() const override {
    const Clock::time_point start = Clock::now();
    BinaryState state = lower().get_state();
    const Clock::time_point end = Clock::now();
    charge(start, end);
    if (on_state && tracer_.recording) {
      on_state(state);
      observe_ns[tracer_.phase] += elapsed_ns(end, Clock::now());
    }
    return state;
  }

  /// Totals of one phase, or of both with kAll.
  [[nodiscard]] std::uint64_t span(int phase) const {
    return phase == kAll ? span_ns[0] + span_ns[1] : span_ns[phase];
  }
  [[nodiscard]] std::uint64_t observed(int phase) const {
    return phase == kAll ? observe_ns[0] + observe_ns[1] : observe_ns[phase];
  }
  [[nodiscard]] std::uint64_t calls(int phase) const {
    return phase == kAll ? calls_[0] + calls_[1] : calls_[phase];
  }

  std::function<void(const Circuit&)> on_add;
  std::function<void(const BinaryState&)> on_state;

 private:
  void charge(Clock::time_point start, Clock::time_point end) const {
    if (tracer_.recording) {
      span_ns[tracer_.phase] += elapsed_ns(start, end);
      ++calls_[tracer_.phase];
      ++tracer_.calls;
    }
  }

  Tracer& tracer_;
  mutable std::uint64_t span_ns[kPhases] = {0, 0};
  mutable std::uint64_t observe_ns[kPhases] = {0, 0};
  mutable std::uint64_t calls_[kPhases] = {0, 0};
};

/// Core that does nothing; the element under the calibration probe.
class NoopCore final : public Core {
 public:
  void create_qubits(std::size_t) override {}
  void remove_qubits() override {}
  void add(const Circuit&) override {}
  void execute() override {}
  [[nodiscard]] BinaryState get_state() const override { return {}; }
  [[nodiscard]] std::optional<qpf::sv::StateVector> get_quantum_state()
      const override {
    return std::nullopt;
  }
  [[nodiscard]] std::size_t num_qubits() const override { return 0; }
};

/// Cost of one probe crossing, split where the probe's span starts and
/// ends: `inside_ns` lies within the span and is charged to the element
/// below the probe, `outside_ns` lies around it and is charged to the
/// element above.
struct ProbeCost {
  double inside_ns = 0.0;
  double outside_ns = 0.0;
};

/// Calibrates ProbeCost with add() calls into a NoopCore, direct and
/// through a recording probe: medians of nine batches.  The call target is
/// read through a volatile pointer so neither call is devirtualised.  It
/// takes a few milliseconds, so every trial calibrates afresh and host
/// speed drift over a run does not skew the correction.
ProbeCost calibrate_probe() {
  constexpr std::size_t kCalls = 2000;
  NoopCore noop;
  Tracer tracer;
  tracer.recording = true;
  Probe probe(&noop, tracer);
  Core* volatile direct = &noop;
  Core* volatile probed = &probe;
  const Circuit circuit;
  std::vector<double> bare;
  std::vector<double> through;
  std::vector<double> span;
  for (int batch = 0; batch < 9; ++batch) {
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      direct->add(circuit);
    }
    bare.push_back(static_cast<double>(elapsed_ns(start, Clock::now())) /
                   kCalls);
    const std::uint64_t spanned = probe.span(kAll);
    start = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      probed->add(circuit);
    }
    through.push_back(static_cast<double>(elapsed_ns(start, Clock::now())) /
                      kCalls);
    span.push_back(static_cast<double>(probe.span(kAll) - spanned) / kCalls);
  }
  ProbeCost cost;
  cost.inside_ns = std::max(0.0, quantile(span, 0.5) - quantile(bare, 0.5));
  cost.outside_ns =
      std::max(0.0, quantile(through, 0.5) - quantile(span, 0.5));
  return cost;
}

/// One window's decoder input: carried round and the two fresh rounds.
struct DecodeInput {
  Syndrome carried = 0;
  Syndrome r1 = 0;
  Syndrome r2 = 0;
};

/// The Fig 5.8 chain, element for element as arch::LerStack builds it
/// (same seeds and salts), with a probe under every element.
struct TracedChain {
  TracedChain(const Point& point, std::uint64_t seed) {
    core = std::make_unique<qpf::arch::ChpCore>(seed);
    p_core = std::make_unique<Probe>(core.get(), tracer);
    counter_bottom = std::make_unique<qpf::arch::CounterLayer>(p_core.get());
    p_counter_bottom = std::make_unique<Probe>(counter_bottom.get(), tracer);
    error = std::make_unique<qpf::arch::ErrorLayer>(
        p_counter_bottom.get(), point.per, seed ^ 0x9e3779b97f4a7c15ULL);
    p_error = std::make_unique<Probe>(error.get(), tracer);
    counter_below = std::make_unique<qpf::arch::CounterLayer>(p_error.get());
    p_counter_below = std::make_unique<Probe>(counter_below.get(), tracer);
    Core* below_above = p_counter_below.get();
    if (point.frame) {
      frame = std::make_unique<qpf::arch::PauliFrameLayer>(below_above);
      p_frame = std::make_unique<Probe>(frame.get(), tracer);
      below_above = p_frame.get();
    }
    counter_above = std::make_unique<qpf::arch::CounterLayer>(below_above);
    p_top = std::make_unique<Probe>(counter_above.get(), tracer);
    ninja = std::make_unique<qpf::arch::NinjaStarLayer>(p_top.get());
    ninja->create_qubits(1);

    // The observers capture `this`, and the probes hold `tracer`; the
    // chain is never copied or moved.
    p_core->on_add = [this](const Circuit& circuit) {
      ++physical.circuits;
      physical.ops += circuit.num_operations();
      physical.slots += circuit.num_slots();
      for (const auto& slot : circuit) {
        for (const auto& op : slot) {
          physical.measurements += op.gate() == GateType::kMeasureZ ? 1 : 0;
        }
      }
    };
    p_top->on_add = [this](const Circuit& circuit) {
      if (tracer.phase == kWindow && circuit.name() == "window-corrections") {
        correction_ops += circuit.num_operations();
        ++corrected_windows;
      }
    };
    p_top->on_state = [this](const BinaryState& state) {
      if (tracer.phase != kWindow) {
        return;
      }
      const qpf::qec::NinjaStar& star = ninja->star(0);
      Syndrome syndrome = star.carried_syndrome();
      for (int ancilla : star.esm_measurement_order()) {
        const auto bit = static_cast<Syndrome>(1u << ancilla);
        const BinaryValue value =
            state.at(qpf::qec::Sc17Layout::ancilla_qubit(star.base(), ancilla));
        syndrome = value == BinaryValue::kOne
                       ? static_cast<Syndrome>(syndrome | bit)
                       : static_cast<Syndrome>(syndrome & ~bit);
      }
      rounds.push_back(syndrome);
    };
  }

  TracedChain(const TracedChain&) = delete;
  TracedChain& operator=(const TracedChain&) = delete;

  void set_diagnostic_mode(bool on) {
    counter_bottom->set_bypass(on);
    error->set_bypass(on);
    counter_below->set_bypass(on);
    counter_above->set_bypass(on);
  }

  void reset_counters() {
    counter_bottom->reset_counters();
    counter_below->reset_counters();
    counter_above->reset_counters();
  }

  [[nodiscard]] std::vector<Probe*> probes() const {
    std::vector<Probe*> all{p_core.get(), p_counter_bottom.get(),
                            p_error.get(), p_counter_below.get(),
                            p_top.get()};
    if (p_frame) {
      all.push_back(p_frame.get());
    }
    return all;
  }

  Tracer tracer;
  struct {
    std::uint64_t circuits = 0;
    std::uint64_t ops = 0;
    std::uint64_t slots = 0;
    std::uint64_t measurements = 0;
  } physical;
  std::uint64_t correction_ops = 0;
  std::uint64_t corrected_windows = 0;
  std::vector<Syndrome> rounds;  ///< fresh ESM rounds, window phase only

  std::unique_ptr<qpf::arch::ChpCore> core;
  std::unique_ptr<Probe> p_core;
  std::unique_ptr<qpf::arch::CounterLayer> counter_bottom;
  std::unique_ptr<Probe> p_counter_bottom;
  std::unique_ptr<qpf::arch::ErrorLayer> error;
  std::unique_ptr<Probe> p_error;
  std::unique_ptr<qpf::arch::CounterLayer> counter_below;
  std::unique_ptr<Probe> p_counter_below;
  std::unique_ptr<qpf::arch::PauliFrameLayer> frame;
  std::unique_ptr<Probe> p_frame;
  std::unique_ptr<qpf::arch::CounterLayer> counter_above;
  std::unique_ptr<Probe> p_top;
  std::unique_ptr<qpf::arch::NinjaStarLayer> ninja;
};

/// Totals over every traced window (ns unless named otherwise).
struct Totals {
  std::uint64_t windows = 0;
  std::uint64_t window_ns = 0;
  std::uint64_t reference_ns = 0;
  std::uint64_t glue_ns = 0;  ///< loop work outside every element
  double ninja_ns = 0.0;
  double diag_ns = 0.0;
  double error_ns = 0.0;
  double frame_ns = 0.0;
  double counter_ns = 0.0;
  double core_ns = 0.0;
  std::uint64_t observe_ns = 0;
  double probe_ns = 0.0;  ///< calibrated cost of every probe crossing
  double probe_inside_ns = 0.0;   ///< per-trial calibrations, summed
  double probe_outside_ns = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t circuits = 0;
  std::uint64_t ops = 0;
  std::uint64_t slots = 0;
  std::uint64_t measurements = 0;
  std::uint64_t faults = 0;
  std::uint64_t correction_ops = 0;
  std::uint64_t corrected_windows = 0;
  std::uint64_t logical_errors = 0;
  // Pauli-frame points only.
  std::uint64_t frame_windows = 0;
  std::uint64_t ops_above = 0;
  std::uint64_t ops_below = 0;
  std::uint64_t slots_above = 0;
  std::uint64_t slots_below = 0;
  double max_saved_slots = 0.0;
  // Checks.
  std::uint64_t trials = 0;
  std::uint64_t mismatched_trials = 0;
  std::uint64_t negative_spans = 0;
};

/// Self time of the element between two probes in `phase`: its span
/// (`calls` crossings of the probe above it) minus the span and observer
/// time of `below`, minus the probe cost charged to it.  Child spans
/// longer than the parent span fail the nesting check; the calibrated
/// cost can round a near-idle element below zero, and it is kept signed
/// so the totals still add up.
double self_time(std::uint64_t span, std::uint64_t calls, const Probe* below,
                 int phase, const ProbeCost& cost, Totals& totals) {
  std::uint64_t children = 0;
  double crossings = cost.inside_ns * static_cast<double>(calls);
  if (below != nullptr) {
    children = below->span(phase) + below->observed(phase);
    crossings += cost.outside_ns * static_cast<double>(below->calls(phase));
  }
  if (children > span) {
    ++totals.negative_spans;
  }
  return static_cast<double>(span) - static_cast<double>(children) -
         crossings;
}

/// Nanoseconds per call of `body`, median over seven timed batches.
template <typename Body>
double ns_per_call(std::size_t calls_per_batch, Body&& body) {
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < calls_per_batch; ++i) {
      body(i);
    }
    batches.push_back(static_cast<double>(elapsed_ns(start, Clock::now())) /
                      static_cast<double>(calls_per_batch));
  }
  return quantile(batches, 0.5);
}

struct Components {
  double inject_ns = 0.0;
  double esm_circuit_ns = 0.0;
  double decode_window_ns = 0.0;
};

volatile std::size_t g_sink = 0;

Components time_components(TracedChain& chain, const Point& point,
                           const std::vector<DecodeInput>& inputs,
                           std::uint64_t seed) {
  Components out;
  const qpf::qec::NinjaStar& live = chain.ninja->star(0);
  const Circuit esm = live.esm_circuit();
  qpf::qec::DepolarizingModel model(point.per, seed);
  out.inject_ns = ns_per_call(256, [&](std::size_t) {
    g_sink = g_sink + model.inject(esm, qpf::qec::Sc17Layout::kNumQubits)
                          .num_operations();
  });
  out.esm_circuit_ns = ns_per_call(256, [&](std::size_t) {
    g_sink = g_sink + live.esm_circuit().num_operations();
  });
  if (!inputs.empty()) {
    qpf::qec::NinjaStar star = live;
    const std::size_t calls = std::max<std::size_t>(inputs.size(), 2048);
    out.decode_window_ns = ns_per_call(calls, [&](std::size_t i) {
      const DecodeInput& in = inputs[i % inputs.size()];
      star.set_carried_syndrome(in.carried);
      g_sink = g_sink + star.decode_window(in.r1, in.r2).size();
    });
  }
  return out;
}

bool same_counters(const qpf::arch::Counters& a, const qpf::arch::Counters& b) {
  return a.operations == b.operations && a.time_slots == b.time_slots &&
         a.circuits == b.circuits;
}

bool same_tally(const qpf::qec::ErrorTally& a, const qpf::qec::ErrorTally& b) {
  return a.single_qubit == b.single_qubit && a.two_qubit == b.two_qubit &&
         a.measurement_flips == b.measurement_flips && a.idle == b.idle;
}

/// One traced trial plus its untraced reference; accumulates into totals.
void run_trial(const Point& point, std::uint64_t seed, std::size_t windows,
               bool reference_first, Totals& totals, Components& components,
               std::size_t& component_points) {
  // Untraced reference at the same seed; it runs first on every other
  // trial so warm-up cost does not land on one side of the overhead.
  qpf::bench::LerConfig config;
  config.physical_error_rate = point.per;
  config.with_pauli_frame = point.frame;
  config.basis = point.basis;
  config.target_logical_errors = windows + 1;
  config.max_windows = windows;
  config.seed = seed;
  qpf::bench::LerTrial reference(config);
  const auto run_reference = [&] {
    const Clock::time_point start = Clock::now();
    while (!reference.done()) {
      reference.step();
    }
    totals.reference_ns += elapsed_ns(start, Clock::now());
  };
  if (reference_first) {
    run_reference();
  }

  const ProbeCost cost = calibrate_probe();
  totals.probe_inside_ns += cost.inside_ns;
  totals.probe_outside_ns += cost.outside_ns;
  TracedChain chain(point, seed);
  chain.set_diagnostic_mode(true);
  chain.ninja->initialize(0, point.basis);
  chain.set_diagnostic_mode(false);
  chain.reset_counters();

  std::vector<DecodeInput> inputs;
  inputs.reserve(windows);
  chain.rounds.reserve(2 * windows);
  std::uint64_t ninja_ns[kPhases] = {0, 0};
  std::uint64_t window_ns = 0;
  std::uint64_t glue_ns = 0;
  std::size_t logical_errors = 0;
  int expected_sign = +1;
  chain.tracer.recording = true;
  for (std::size_t w = 0; w < windows; ++w) {
    const Syndrome carried = chain.ninja->star(0).carried_syndrome();
    const std::size_t rounds_before = chain.rounds.size();
    const Clock::time_point step = Clock::now();
    chain.tracer.phase = kWindow;
    chain.ninja->run_window(0);
    const Clock::time_point window_end = Clock::now();
    ninja_ns[kWindow] += elapsed_ns(step, window_end);
    chain.set_diagnostic_mode(true);
    chain.tracer.phase = kDiag;
    const Clock::time_point diag_start = Clock::now();
    if (!chain.ninja->has_observable_errors(0)) {
      const int sign = chain.ninja->measure_logical_stabilizer(0, point.basis);
      if (sign != expected_sign) {
        ++logical_errors;
        expected_sign = sign;
      }
    }
    const Clock::time_point diag_end = Clock::now();
    ninja_ns[kDiag] += elapsed_ns(diag_start, diag_end);
    chain.set_diagnostic_mode(false);
    const Clock::time_point window_close = Clock::now();
    window_ns += elapsed_ns(step, window_close);
    glue_ns += elapsed_ns(window_end, diag_start) +
               elapsed_ns(diag_end, window_close);
    if (chain.rounds.size() == rounds_before + 2) {
      inputs.push_back(DecodeInput{carried, chain.rounds[rounds_before],
                                   chain.rounds[rounds_before + 1]});
    }
  }
  chain.tracer.recording = false;
  if (!reference_first) {
    run_reference();
  }

  const qpf::arch::LerStack& stack = reference.stack();
  const bool same = reference.windows() == windows &&
                    reference.logical_errors() == logical_errors &&
                    same_tally(stack.error_tally(), chain.error->tally()) &&
                    same_counters(stack.counters_above_frame(),
                                  chain.counter_above->counters()) &&
                    same_counters(stack.counters_below_frame(),
                                  chain.counter_below->counters()) &&
                    same_counters(stack.counters_physical(),
                                  chain.counter_bottom->counters());
  ++totals.trials;
  if (!same) {
    ++totals.mismatched_trials;
    std::fprintf(stderr,
                 "trace-ler: traced trial (per=%g seed=%llu) differs from the "
                 "untraced LerStack run: windows %zu/%zu errors %zu/%zu\n",
                 point.per, static_cast<unsigned long long>(seed),
                 reference.windows(), windows, reference.logical_errors(),
                 logical_errors);
  }

  // Self time per element: the span of the probe above it minus the span
  // (and observer time) of the probe directly below it, minus the
  // calibrated probe cost that landed on it.  The NinjaStarLayer's own
  // span is the loop's run_window / diagnostic timing.
  const Probe* top = chain.p_top.get();
  const Probe* below_above = chain.p_frame ? chain.p_frame.get()
                                           : chain.p_counter_below.get();
  const Probe* core = chain.p_core.get();
  const Probe* cbottom = chain.p_counter_bottom.get();
  const Probe* error = chain.p_error.get();
  const Probe* cbelow = chain.p_counter_below.get();
  const auto element = [&](const Probe* above, const Probe* below) {
    return self_time(above->span(kAll), above->calls(kAll), below, kAll, cost,
                     totals);
  };
  totals.ninja_ns +=
      self_time(ninja_ns[kWindow], 0, top, kWindow, cost, totals);
  totals.diag_ns += self_time(ninja_ns[kDiag], 0, top, kDiag, cost, totals);
  totals.counter_ns += element(top, below_above) + element(cbelow, error) +
                       element(cbottom, core);
  if (const Probe* frame = chain.p_frame.get()) {
    totals.frame_ns += element(frame, cbelow);
  }
  totals.error_ns += element(error, cbottom);
  totals.core_ns += element(core, nullptr);
  for (const Probe* probe : chain.probes()) {
    totals.observe_ns += probe->observed(kAll);
    totals.probe_ns += (cost.inside_ns + cost.outside_ns) *
                       static_cast<double>(probe->calls(kAll));
  }
  totals.windows += windows;
  totals.window_ns += window_ns;
  totals.glue_ns += glue_ns;
  totals.calls += chain.tracer.calls;
  totals.circuits += chain.physical.circuits;
  totals.ops += chain.physical.ops;
  totals.slots += chain.physical.slots;
  totals.measurements += chain.physical.measurements;
  totals.faults += chain.error->tally().total();
  totals.correction_ops += chain.correction_ops;
  totals.corrected_windows += chain.corrected_windows;
  totals.logical_errors += logical_errors;
  if (point.frame) {
    const auto& above = chain.counter_above->counters();
    const auto& below = chain.counter_below->counters();
    totals.frame_windows += windows;
    totals.ops_above += above.operations;
    totals.ops_below += below.operations;
    totals.slots_above += above.time_slots;
    totals.slots_below += below.time_slots;
    if (above.time_slots != 0) {
      totals.max_saved_slots = std::max(
          totals.max_saved_slots,
          (static_cast<double>(above.time_slots) -
           static_cast<double>(below.time_slots)) /
              static_cast<double>(above.time_slots));
    }
  }

  const Components c = time_components(chain, point, inputs, seed ^ 0x5bd1e995);
  components.inject_ns += c.inject_ns;
  components.esm_circuit_ns += c.esm_circuit_ns;
  components.decode_window_ns += c.decode_window_ns;
  ++component_points;
}

double per_window(std::uint64_t value, std::uint64_t windows) {
  return windows == 0 ? 0.0
                      : static_cast<double>(value) /
                            static_cast<double>(windows);
}

}  // namespace

int trace_ler(const Args& args) {
  const std::vector<Point> points = parse_points(args.str("points"));
  const std::size_t windows = args.u64("windows", 1000);
  const std::size_t trials = args.u64("trials", 1);
  const std::uint64_t seed = args.u64("seed", 1);

  Totals totals;
  Components components;
  std::size_t component_points = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t t = 0; t < trials; ++t) {
      run_trial(points[p], derive_seed(seed, p, t), windows,
                (p * trials + t) % 2 == 1, totals, components,
                component_points);
    }
  }

  // The traced window splits exactly into self times, loop glue and the
  // tracer's own cost (observers and probe crossings); that is how self
  // time is defined.  What can fail is the calibration: with the tracer's
  // cost taken out, self times + glue must match the untraced window.
  const double w = static_cast<double>(totals.windows);
  const double attributed = totals.ninja_ns + totals.diag_ns +
                            totals.error_ns + totals.frame_ns +
                            totals.counter_ns + totals.core_ns;
  const double accounted = attributed + static_cast<double>(totals.glue_ns);
  const double account_gap =
      accounted / static_cast<double>(totals.reference_ns) - 1.0;
  const double n = static_cast<double>(component_points);

  Report report;
  report.count("trials", totals.trials);
  report.count("mismatched_trials", totals.mismatched_trials);
  report.count("negative_spans", totals.negative_spans);
  report.count("windows", totals.windows);
  report.count("logical_errors", totals.logical_errors);
  report.num("window_us", per_window(totals.window_ns, totals.windows) / 1e3);
  report.num("untraced_window_us",
             per_window(totals.reference_ns, totals.windows) / 1e3);
  report.num("probe_inside_ns",
             totals.probe_inside_ns / static_cast<double>(totals.trials));
  report.num("probe_outside_ns",
             totals.probe_outside_ns / static_cast<double>(totals.trials));
  report.num("probe_us", totals.probe_ns / w / 1e3);
  report.num("observe_us", per_window(totals.observe_ns, totals.windows) / 1e3);
  report.num("glue_us", per_window(totals.glue_ns, totals.windows) / 1e3);
  report.num("account_gap", account_gap);
  report.num("account_tolerance", kAccountTolerance);
  report.count("account_ok", std::abs(account_gap) <= kAccountTolerance);
  report.num("arch.ninja.self_us", totals.ninja_ns / w / 1e3);
  report.num("arch.diag.self_us", totals.diag_ns / w / 1e3);
  report.num("arch.error.self_us", totals.error_ns / w / 1e3);
  report.num("arch.frame.self_us",
             totals.frame_windows == 0
                 ? 0.0
                 : totals.frame_ns / static_cast<double>(totals.frame_windows) /
                       1e3);
  report.num("arch.counter.self_us", totals.counter_ns / w / 1e3);
  report.num("arch.core.self_us", totals.core_ns / w / 1e3);
  report.num("arch.calls_per_window", totals.calls / w);
  report.num("arch.circuits_per_window", totals.circuits / w);
  report.num("arch.unattributed_frac",
             static_cast<double>(totals.glue_ns) / accounted);
  report.num("qec.faults_per_window", totals.faults / w);
  report.num("qec.inject_ns", components.inject_ns / n);
  report.num("qec.esm_circuit_ns", components.esm_circuit_ns / n);
  report.num("qec.decode_window_ns", components.decode_window_ns / n);
  report.num("qec.corrections_per_window", totals.correction_ops / w);
  report.num("qec.decode_useful_frac", totals.corrected_windows / w);
  report.num("core.frame.absorbed_ops_per_window",
             totals.frame_windows == 0
                 ? 0.0
                 : (static_cast<double>(totals.ops_above) -
                    static_cast<double>(totals.ops_below)) /
                       static_cast<double>(totals.frame_windows));
  report.num("core.frame.saved_slots_frac",
             totals.slots_above == 0
                 ? 0.0
                 : (static_cast<double>(totals.slots_above) -
                    static_cast<double>(totals.slots_below)) /
                       static_cast<double>(totals.slots_above));
  report.num("max_saved_slots", totals.max_saved_slots);
  report.num("stabilizer.ops_per_window", totals.ops / w);
  report.num("stabilizer.slots_per_window", totals.slots / w);
  report.num("stabilizer.measurements_per_window", totals.measurements / w);
  report.num("trace.overhead_frac",
             static_cast<double>(totals.window_ns) /
                     static_cast<double>(totals.reference_ns) -
                 1.0);
  report.print();
  return 0;
}

}  // namespace perfbench
