// trace-exec: the campaign's executor and journal, driven from here.
//
// Runs fixed-window LER trials of each point through
// exec::Executor::run_ordered and commits them, in trial order, to a
// journal::RunJournal with the same fields the campaign engine writes.
// Spans around the trial set-up, the trial body, the wait for in-order
// commit and each append (fsync included) give the exec and journal rows.
#include <sys/stat.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "journal/run_journal.h"
#include "ler_common.h"

namespace perfbench {
namespace {

struct TrialTiming {
  Clock::time_point start;
  Clock::time_point finish;
  std::uint64_t setup_ns = 0;
  std::size_t windows = 0;
  std::size_t logical_errors = 0;
  double saved_gates = 0.0;
  double saved_slots = 0.0;
};

[[nodiscard]] long long file_size(const std::string& path) {
  struct stat info {};
  return ::stat(path.c_str(), &info) == 0 ? static_cast<long long>(info.st_size)
                                          : 0;
}

std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int trace_exec(const Args& args) {
  const std::vector<Point> points = parse_points(args.str("points"));
  const std::size_t windows = args.u64("windows", 500);
  const std::size_t trials = args.u64("trials", 8);
  const std::size_t jobs = qpf::exec::resolve_jobs(args.u64("jobs", 0));
  const std::uint64_t seed = args.u64("seed", 1);
  const std::string dir = args.str("dir", ".");
  const std::size_t workers = std::max<std::size_t>(1, std::min(jobs, trials));

  std::vector<double> setup_ms;
  std::vector<double> commit_wait_ms;
  std::vector<double> append_ms;
  std::uint64_t busy_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t append_ns = 0;
  long long journal_bytes = 0;
  std::uint64_t committed = 0;
  std::uint64_t short_trials = 0;

  for (std::size_t p = 0; p < points.size(); ++p) {
    const Point& point = points[p];
    const std::string path =
        dir + "/trace-exec-" + std::to_string(p) + ".jsonl";
    std::remove(path.c_str());
    qpf::journal::RunJournal journal(path);

    std::vector<std::uint64_t> seeds(trials);
    for (std::size_t t = 0; t < trials; ++t) {
      seeds[t] = derive_seed(seed, p, t);
    }
    const std::function<qpf::exec::TaskResult<TrialTiming>(
        const qpf::exec::TaskContext&)>
        task = [&](const qpf::exec::TaskContext& ctx) {
          qpf::exec::TaskResult<TrialTiming> out;
          TrialTiming& timing = out.value;
          timing.start = Clock::now();
          qpf::bench::LerConfig config;
          config.physical_error_rate = point.per;
          config.with_pauli_frame = point.frame;
          config.basis = point.basis;
          config.target_logical_errors = windows + 1;
          config.max_windows = windows;
          config.seed = seeds[ctx.index()];
          qpf::bench::LerTrial trial(config);
          timing.setup_ns = elapsed_ns(timing.start, Clock::now());
          while (!trial.done()) {
            trial.step();
          }
          const qpf::bench::LerRun run = trial.result();
          timing.windows = run.windows;
          timing.logical_errors = run.logical_errors;
          timing.saved_gates = run.saved_gates_fraction;
          timing.saved_slots = run.saved_slots_fraction;
          timing.finish = Clock::now();
          return out;
        };
    const std::function<bool(std::size_t, TrialTiming&&)> commit =
        [&](std::size_t index, TrialTiming&& timing) {
          const Clock::time_point commit_start = Clock::now();
          qpf::journal::JournalEntry entry;
          entry.fields["kind"] = "trial";
          entry.fields["trial"] = std::to_string(index);
          entry.fields["seed"] = std::to_string(seeds[index]);
          entry.fields["windows"] = std::to_string(timing.windows);
          entry.fields["logical_errors"] =
              std::to_string(timing.logical_errors);
          entry.fields["saved_gates"] = format_double(timing.saved_gates);
          entry.fields["saved_slots"] = format_double(timing.saved_slots);
          entry.fields["timed_out"] = "0";
          const long long before = file_size(path);
          const Clock::time_point append_start = Clock::now();
          journal.append(entry);
          const Clock::time_point append_end = Clock::now();
          journal_bytes += file_size(path) - before;
          append_ns += elapsed_ns(append_start, append_end);
          append_ms.push_back(elapsed_ns(append_start, append_end) / 1e6);
          commit_wait_ms.push_back(
              elapsed_ns(timing.finish, commit_start) / 1e6);
          setup_ms.push_back(timing.setup_ns / 1e6);
          busy_ns += elapsed_ns(timing.start, timing.finish);
          short_trials += timing.windows == windows ? 0 : 1;
          ++committed;
          return true;
        };

    qpf::exec::RunOptions options;
    options.seed = seed;
    qpf::exec::Executor pool(workers);
    const Clock::time_point start = Clock::now();
    (void)pool.run_ordered<TrialTiming>(trials, options, task, commit);
    wall_ns += elapsed_ns(start, Clock::now());
    std::remove(path.c_str());
  }

  Report report;
  report.count("jobs", workers);
  report.count("committed", committed);
  report.count("short_trials", short_trials);
  report.num("exec.busy_frac", static_cast<double>(busy_ns) /
                                   (static_cast<double>(workers) *
                                    static_cast<double>(wall_ns)));
  report.num("exec.commit_wait_ms_p50", quantile(commit_wait_ms, 0.5));
  report.num("exec.commit_wait_ms_p90", quantile(commit_wait_ms, 0.9));
  report.num("exec.trial_setup_ms_p50", quantile(setup_ms, 0.5));
  report.num("journal.append_ms_p50", quantile(append_ms, 0.5));
  report.num("journal.append_ms_p90", quantile(append_ms, 0.9));
  report.num("journal.bytes_per_trial",
             committed == 0 ? 0.0
                            : static_cast<double>(journal_bytes) /
                                  static_cast<double>(committed));
  report.num("journal.wall_share", static_cast<double>(append_ns) /
                                       static_cast<double>(wall_ns));
  report.print();
  return 0;
}

}  // namespace perfbench
