// qpf_perfbench: the in-process half of the repository benchmark.
//
//   qpf_perfbench trace-ler  --points=P --windows=W --trials=R --seed=S
//   qpf_perfbench trace-exec --points=P --windows=W --trials=R --jobs=J
//                            --seed=S --dir=D
//   qpf_perfbench serve-load --port=N --tenants=T --seconds=X --seed=S
//                            [--trace]
//
// Points are "per:basis:frame" items separated by commas.  Each
// subcommand prints one JSON object on stdout; run.py turns those into
// the benchmark's metrics and checks.
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: qpf_perfbench trace-ler|trace-exec|serve-load "
                 "[--key=value ...]\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const perfbench::Args args(argc, argv, 2);
    if (command == "trace-ler") {
      return perfbench::trace_ler(args);
    }
    if (command == "trace-exec") {
      return perfbench::trace_exec(args);
    }
    if (command == "serve-load") {
      return perfbench::serve_load(args);
    }
    std::fprintf(stderr, "qpf_perfbench: unknown command '%s'\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qpf_perfbench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
