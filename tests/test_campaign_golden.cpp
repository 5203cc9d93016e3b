// Golden pin of the campaign engine's outputs.  Every journal and
// every LerPoint below was recorded from the engine that still kept a
// hand-written jobs=1 trial loop and a separate sequential fuzz loop
// beside the executor; the one executor-driven engine must reproduce
// each byte and each double exactly.  The jobs-sweep suites
// (ParallelCampaignTest, check_exec, the fuzz --jobs sweeps) compare
// the engine against itself; this suite anchors them to fixed bytes.
// A change that moves the physics stream on purpose re-records these
// values and says so.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/bug_plant.h"
#include "fuzz/engine.h"
#include "ler_common.h"

namespace qpf::bench {
namespace {

struct PinnedPoint {
  std::vector<double> ler_samples;
  std::vector<double> window_samples;
  double mean_ler;
  double stddev_ler;
  double window_cv;
  double saved_gates;
  double saved_slots;
};

void expect_point(const LerPoint& got, const PinnedPoint& want) {
  // EXPECT_EQ on doubles on purpose: the pin is bit-exact.
  EXPECT_EQ(got.ler_samples, want.ler_samples);
  EXPECT_EQ(got.window_samples, want.window_samples);
  EXPECT_EQ(got.mean_ler, want.mean_ler);
  EXPECT_EQ(got.stddev_ler, want.stddev_ler);
  EXPECT_EQ(got.window_cv, want.window_cv);
  EXPECT_EQ(got.saved_gates, want.saved_gates);
  EXPECT_EQ(got.saved_slots, want.saved_slots);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// 64-bit FNV-1a, the digest the fuzz report pins are recorded in.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

class CampaignGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string("campaign_golden_test_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A fresh, empty state directory for one campaign.
  const std::string& fresh_dir() {
    std::filesystem::remove_all(dir_);
    return dir_;
  }

  std::string dir_;
};

// --- durable campaigns: p x basis x frame ----------------------------

struct GridPin {
  double per;
  char basis;
  int frame;
  const char* journal;
  PinnedPoint point;
};

// Three trials each (base seed 20261020, 2 target errors, 500-window
// cap), checkpointing every 64 windows.
const GridPin kGrid[] = {
    {1e-3, 'z', 0,
     R"({"basis":"z","kind":"config","max_windows":500,"pauli_frame":0,"per":0.001,"runs":3,"seed":20261020,"target_errors":2,"crc":"575f4f10"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":7983417055111088315,"timed_out":0,"trial":0,"windows":332,"crc":"bd13a4c2"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":16118140580385640238,"timed_out":0,"trial":1,"windows":237,"crc":"9a3db0ae"}
{"kind":"trial","logical_errors":0,"saved_gates":0,"saved_slots":0,"seed":5671044915995786853,"timed_out":0,"trial":2,"windows":500,"crc":"afc4be6b"}
)",
     {{0x1.8acb90f6bf3aap-8, 0x1.1485f0e0acd3bp-7, 0x0p+0},
      {0x1.4cp+8, 0x1.dap+7, 0x1.f4p+8},
      0x1.3bf27b92b2f6p-8, 0x1.1cd45950ca90ep-8, 0x1.7eb706f47ea5bp-2,
      0x0p+0, 0x0p+0}},
    {1e-3, 'z', 1,
     R"({"basis":"z","kind":"config","max_windows":500,"pauli_frame":1,"per":0.001,"runs":3,"seed":20261020,"target_errors":2,"crc":"4aca5cc7"}
{"kind":"trial","logical_errors":0,"saved_gates":0.0018507350953440495,"saved_slots":0.0085512455074978309,"seed":7983417055111088315,"timed_out":0,"trial":0,"windows":500,"crc":"4fb47af6"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0015685739616722362,"saved_slots":0.0079284407399878021,"seed":16118140580385640238,"timed_out":0,"trial":1,"windows":305,"crc":"de896187"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0018923327895595432,"saved_slots":0.0084273304810060928,"seed":5671044915995786853,"timed_out":0,"trial":2,"windows":478,"crc":"b031431b"}
)",
     {{0x0p+0, 0x1.adbe87f94905ep-8, 0x1.12358e75d3033p-8},
      {0x1.f4p+8, 0x1.31p+8, 0x1.dep+8},
      0x1.d54d644a12b0bp-9, 0x1.b32c069fac6bcp-9, 0x1.ff7182c976d77p-3,
      0x1.d0236ab1305ebp-10, 0x1.100d110c5d5adp-7}},
    {1e-3, 'x', 0,
     R"({"basis":"x","kind":"config","max_windows":500,"pauli_frame":0,"per":0.001,"runs":3,"seed":20261020,"target_errors":2,"crc":"db6d5b64"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":7983417055111088315,"timed_out":0,"trial":0,"windows":270,"crc":"36b36add"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":16118140580385640238,"timed_out":0,"trial":1,"windows":198,"crc":"f22bfbec"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":5671044915995786853,"timed_out":0,"trial":2,"windows":466,"crc":"c4b4fc41"}
)",
     {{0x1.e573ac901e574p-8, 0x1.4afd6a052bf5bp-7, 0x1.19453808ca29cp-8},
      {0x1.0ep+8, 0x1.8cp+7, 0x1.d2p+8},
      0x1.dc3be8366acecp-8, 0x1.7d0b4654bfc3dp-9, 0x1.c830e951144ccp-2,
      0x0p+0, 0x0p+0}},
    {1e-3, 'x', 1,
     R"({"basis":"x","kind":"config","max_windows":500,"pauli_frame":1,"per":0.001,"runs":3,"seed":20261020,"target_errors":2,"crc":"c6f848b3"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0018882948470026163,"saved_slots":0.0088111698522434587,"seed":7983417055111088315,"timed_out":0,"trial":0,"windows":457,"crc":"ddcee8ca"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0015685739616722362,"saved_slots":0.0079284407399878021,"seed":16118140580385640238,"timed_out":0,"trial":1,"windows":305,"crc":"de896187"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0027843221246519599,"saved_slots":0.011464968152866241,"seed":5671044915995786853,"timed_out":0,"trial":2,"windows":97,"crc":"1db12ebe"}
)",
     {{0x1.1ecf43c7fb84cp-8, 0x1.adbe87f94905ep-8, 0x1.51d07eae2f815p-6},
      {0x1.c9p+8, 0x1.31p+8, 0x1.84p+6},
      0x1.58a2a11455c2bp-7, 0x1.20de181d7b9f7p-7, 0x1.4328775482c5ap-1,
      0x1.10ae89f6e89d5p-9, 0x1.3411b7e275b27p-7}},
    {1e-2, 'z', 0,
     R"({"basis":"z","kind":"config","max_windows":500,"pauli_frame":0,"per":0.01,"runs":3,"seed":20261020,"target_errors":2,"crc":"c648ad4f"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":7983417055111088315,"timed_out":0,"trial":0,"windows":21,"crc":"5629fe89"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":16118140580385640238,"timed_out":0,"trial":1,"windows":29,"crc":"6dbc818e"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":5671044915995786853,"timed_out":0,"trial":2,"windows":15,"crc":"3ea22c16"}
)",
     {{0x1.8618618618618p-4, 0x1.1a7b9611a7b96p-4, 0x1.1111111111111p-3},
      {0x1.5p+4, 0x1.dp+4, 0x1.ep+3},
      0x1.963cb33df6145p-4, 0x1.0920fc21d04fcp-5, 0x1.4bf4424d9909dp-2,
      0x0p+0, 0x0p+0}},
    {1e-2, 'z', 1,
     R"({"basis":"z","kind":"config","max_windows":500,"pauli_frame":1,"per":0.01,"runs":3,"seed":20261020,"target_errors":2,"crc":"e44b1e5f"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0065623422513881877,"saved_slots":0.032448377581120944,"seed":7983417055111088315,"timed_out":0,"trial":0,"windows":41,"crc":"07a8aa47"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0086058519793459545,"saved_slots":0.032258064516129031,"seed":16118140580385640238,"timed_out":0,"trial":1,"windows":30,"crc":"19aeb65e"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0064683053040103496,"saved_slots":0.020408163265306121,"seed":5671044915995786853,"timed_out":0,"trial":2,"windows":24,"crc":"9bd9fa17"}
)",
     {{0x1.8f9c18f9c18fap-5, 0x1.1111111111111p-4, 0x1.5555555555555p-4},
      {0x1.48p+5, 0x1.ep+4, 0x1.8p+4},
      0x1.0f66d0f66d0f7p-4, 0x1.1b1d9c96d1fdep-6, 0x1.16cc3f7965df7p-2,
      0x1.d8a8134cf0c67p-8, 0x1.d0d6d7deced89p-6}},
    {1e-2, 'x', 0,
     R"({"basis":"x","kind":"config","max_windows":500,"pauli_frame":0,"per":0.01,"runs":3,"seed":20261020,"target_errors":2,"crc":"27202a11"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":7983417055111088315,"timed_out":0,"trial":0,"windows":21,"crc":"5629fe89"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":16118140580385640238,"timed_out":0,"trial":1,"windows":27,"crc":"8a04ac89"}
{"kind":"trial","logical_errors":2,"saved_gates":0,"saved_slots":0,"seed":5671044915995786853,"timed_out":0,"trial":2,"windows":17,"crc":"d0ac4d3a"}
)",
     {{0x1.8618618618618p-4, 0x1.2f684bda12f68p-4, 0x1.e1e1e1e1e1e1ep-4},
      {0x1.5p+4, 0x1.bp+4, 0x1.1p+4},
      0x1.87cb85160468bp-4, 0x1.64ff9a932a894p-6, 0x1.dbc176e9c5de5p-3,
      0x0p+0, 0x0p+0}},
    {1e-2, 'x', 1,
     R"({"basis":"x","kind":"config","max_windows":500,"pauli_frame":1,"per":0.01,"runs":3,"seed":20261020,"target_errors":2,"crc":"05239901"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0054267390231869756,"saved_slots":0.028901734104046242,"seed":7983417055111088315,"timed_out":0,"trial":0,"windows":21,"crc":"ed2a6cc9"}
{"kind":"trial","logical_errors":2,"saved_gates":0.0085205267234701784,"saved_slots":0.033232628398791542,"seed":16118140580385640238,"timed_out":0,"trial":1,"windows":40,"crc":"957615c2"}
{"kind":"trial","logical_errors":2,"saved_gates":0.006355547485019067,"saved_slots":0.023554603854389723,"seed":5671044915995786853,"timed_out":0,"trial":2,"windows":57,"crc":"791b752e"}
)",
     {{0x1.8618618618618p-4, 0x1.999999999999ap-5, 0x1.1f7047dc11f7p-5},
      {0x1.5p+4, 0x1.4p+5, 0x1.c8p+5},
      0x1.ec68e1809ec68p-5, 0x1.0099e9b8a758dp-5, 0x1.d4d9e5c308f91p-2,
      0x1.bb858f9d98f44p-8, 0x1.d3f9dbad7d665p-6}},
};

TEST_F(CampaignGoldenTest, DurableCampaignsMatchThePinnedJournals) {
  ASSERT_EQ(std::size(kGrid), 8u);
  for (const GridPin& pin : kGrid) {
    for (const std::size_t jobs : {1u, 3u}) {
      SCOPED_TRACE(testing::Message() << "p=" << pin.per << " basis="
                                      << pin.basis << " frame=" << pin.frame
                                      << " jobs=" << jobs);
      CampaignOptions options;
      options.config.physical_error_rate = pin.per;
      options.config.basis =
          pin.basis == 'x' ? qec::CheckType::kX : qec::CheckType::kZ;
      options.config.with_pauli_frame = pin.frame != 0;
      options.config.target_logical_errors = 2;
      options.config.max_windows = 500;
      options.config.seed = 20261020;
      options.runs = 3;
      options.checkpoint_every_windows = 64;
      options.jobs = jobs;
      options.state_dir = fresh_dir();
      const CampaignResult result = run_ler_campaign(options);
      EXPECT_FALSE(result.interrupted);
      EXPECT_EQ(result.trials_completed, 3u);
      EXPECT_EQ(slurp(options.state_dir + "/journal.jsonl"), pin.journal);
      expect_point(result.point, pin.point);
    }
  }
}

// --- every optional journal field ------------------------------------

// Classical readout flips, a supervised crash + stall chaos storm, and
// a round deadline: the config line carries every subsystem field and
// each trial line its recovered/episodes/overruns/skipped_decodes.
const char* const kSubsystemsJournal =
    R"({"basis":"z","cf_drop":0,"cf_dup":0,"cf_flip":0.001,"cf_reorder":0,"chaos_burst_len":3,"chaos_burst_w":0,"chaos_crash_w":1,"chaos_max_gap":90,"chaos_min_gap":40,"chaos_seed":7,"chaos_stall_ns":1000000,"chaos_stall_w":1,"deadline_round_ns":500000,"deadline_slot_ns":0,"kind":"config","max_windows":600,"pauli_frame":1,"per":0.001,"runs":2,"seed":515,"sup_escalate":1000000,"sup_overruns":0,"sup_rearm":1,"sup_retries":10,"supervise":1,"target_errors":2,"crc":"14e99e2d"}
{"episodes":0,"kind":"trial","logical_errors":1,"overruns":14,"recovered":22,"saved_gates":0.0015427551179600964,"saved_slots":0.0079570114704970545,"seed":13899149275396724950,"skipped_decodes":14,"timed_out":0,"trial":0,"windows":600,"crc":"85460d21"}
{"episodes":0,"kind":"trial","logical_errors":2,"overruns":5,"recovered":13,"saved_gates":0.0018148820326678765,"saved_slots":0.0081154192966636611,"seed":1322083544625137901,"skipped_decodes":5,"timed_out":0,"trial":1,"windows":275,"crc":"1d8607f4"}
)";

const PinnedPoint kSubsystemsPoint = {
    {0x1.b4e81b4e81b4fp-10, 0x1.dca01dca01dcap-8},
    {0x1.2cp+9, 0x1.13p+8},
    0x1.24ed124ed124fp-8, 0x1.03ca48dd0e793p-8, 0x1.0cf16954892d3p-1,
    0x1.b8179b81efaf2p-10, 0x1.0754a920c78c6p-7};

TEST_F(CampaignGoldenTest, SubsystemFieldsMatchThePinnedJournal) {
  for (const std::size_t jobs : {1u, 3u}) {
    SCOPED_TRACE(testing::Message() << "jobs=" << jobs);
    CampaignOptions options;
    LerConfig& config = options.config;
    config.physical_error_rate = 1e-3;
    config.with_pauli_frame = true;
    config.target_logical_errors = 2;
    config.max_windows = 600;
    config.seed = 515;
    config.classical_faults.readout_flip = 1e-3;
    config.chaos.seed = 7;
    config.chaos.min_gap = 40;
    config.chaos.max_gap = 90;
    config.chaos.crash_weight = 1;
    config.chaos.stall_weight = 1;
    config.chaos.stall_ns = 1.0e6;
    config.supervise = true;
    config.supervisor.max_retries = 10;
    config.supervisor.escalate_after = 1000000;
    config.supervisor.rearm_after = 1;
    config.deadline.round_budget_ns = 5.0e5;
    options.runs = 2;
    options.checkpoint_every_windows = 64;
    options.jobs = jobs;
    options.state_dir = fresh_dir();
    const CampaignResult result = run_ler_campaign(options);
    EXPECT_EQ(result.trials_completed, 2u);
    EXPECT_EQ(result.faults_recovered, 35u);
    EXPECT_EQ(result.fault_episodes, 0u);
    EXPECT_EQ(result.deadline_overruns, 19u);
    EXPECT_EQ(result.decodes_skipped, 19u);
    EXPECT_EQ(slurp(options.state_dir + "/journal.jsonl"), kSubsystemsJournal);
    expect_point(result.point, kSubsystemsPoint);
  }
}

// --- interrupt + resume ----------------------------------------------

// Three trials of 60, 39 and 61 windows (p=1e-2, frame on, base seed
// 8128); every resume ends on the uninterrupted campaign's journal.
const char* const kResumeJournal =
    R"({"basis":"z","kind":"config","max_windows":2000,"pauli_frame":1,"per":0.01,"runs":3,"seed":8128,"target_errors":3,"crc":"61041545"}
{"kind":"trial","logical_errors":3,"saved_gates":0.0080936800413294301,"saved_slots":0.027355623100303952,"seed":4471539786039776783,"timed_out":0,"trial":0,"windows":60,"crc":"7a9abfbe"}
{"kind":"trial","logical_errors":3,"saved_gates":0.008737092930897538,"saved_slots":0.037037037037037035,"seed":17669597998466470642,"timed_out":0,"trial":1,"windows":39,"crc":"103135df"}
{"kind":"trial","logical_errors":3,"saved_gates":0.0076258261311642093,"saved_slots":0.030784508440913606,"seed":7425020345947972569,"timed_out":0,"trial":2,"windows":61,"crc":"e936e849"}
)";

const PinnedPoint kResumePoint = {
    {0x1.999999999999ap-5, 0x1.3b13b13b13b14p-4, 0x1.92e29f79b4758p-5},
    {0x1.ep+5, 0x1.38p+5, 0x1.e8p+5},
    0x1.e0e133d87c7b3p-5, 0x1.02a33907bdf47p-6, 0x1.dd0c02aeb88dcp-3,
    0x1.0b219b8dac25ap-7, 0x1.03e5a9c3f0eedp-5};

struct InterruptPin {
  std::size_t interrupt_after_windows;
  std::size_t windows_resumed;
};

TEST_F(CampaignGoldenTest, InterruptedCampaignResumesToThePinnedJournal) {
  // 79 stops trial 1 after 19 of its windows, which the resume restores
  // from the checkpoint; 60 stops exactly as trial 0 finishes, so trial
  // 1 restarts from its seed.
  for (const InterruptPin pin : {InterruptPin{79, 19}, InterruptPin{60, 0}}) {
    SCOPED_TRACE(testing::Message()
                 << "interrupt_after_windows=" << pin.interrupt_after_windows);
    CampaignOptions options;
    options.config.physical_error_rate = 1e-2;
    options.config.with_pauli_frame = true;
    options.config.target_logical_errors = 3;
    options.config.max_windows = 2000;
    options.config.seed = 8128;
    options.runs = 3;
    options.checkpoint_every_windows = 16;
    options.state_dir = fresh_dir();
    options.interrupt_after_windows = pin.interrupt_after_windows;
    const CampaignResult killed = run_ler_campaign(options);
    EXPECT_TRUE(killed.interrupted);
    EXPECT_EQ(killed.trials_completed, 1u);

    options.interrupt_after_windows = 0;
    const CampaignResult resumed = run_ler_campaign(options);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_FALSE(resumed.checkpoint_recovered);
    EXPECT_EQ(resumed.trials_from_journal, 1u);
    EXPECT_EQ(resumed.trials_completed, 3u);
    EXPECT_EQ(resumed.windows_resumed, pin.windows_resumed);
    EXPECT_EQ(slurp(options.state_dir + "/journal.jsonl"), kResumeJournal);
    expect_point(resumed.point, kResumePoint);
  }
}

// --- fuzz triage reports ---------------------------------------------

struct PlantGuard {
  explicit PlantGuard(int n) { plant::set_for_testing(n); }
  ~PlantGuard() { plant::set_for_testing(-1); }
};

struct FuzzPin {
  int planted_bug;
  std::size_t length;
  std::uint64_t fnv1a;
};

TEST(CampaignGoldenFuzzTest, ReportsMatchThePinnedDigests) {
  // The shared smoke budget (seed 7, 25 cases) at jobs=1: a clean run,
  // and planted bug 6, whose eight failures fill the max_failures
  // cutoff with shrunk witnesses.
  for (const FuzzPin pin : {FuzzPin{0, 157, 0xea1811c4aef0bb1bULL},
                            FuzzPin{6, 4358, 0xc21bbb2e5c75275eULL}}) {
    SCOPED_TRACE(testing::Message() << "planted bug " << pin.planted_bug);
    PlantGuard guard(pin.planted_bug);
    fuzz::FuzzOptions options;
    options.seed = 7;
    options.cases = 25;
    options.jobs = 1;
    const std::string report = fuzz::to_json(fuzz::run_fuzz(options));
    EXPECT_EQ(report.size(), pin.length);
    EXPECT_EQ(fnv1a(report), pin.fnv1a) << report;
  }
}

}  // namespace
}  // namespace qpf::bench
