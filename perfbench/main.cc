// dsketch_perfbench: one workload run of the end-to-end benchmark.
//
//   dsketch_perfbench --workload <ingest|serve_mixed|replica|window_decay>
//                     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints a params line (machine and run parameters) and, as the last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A failed
// check or a refused operation shows as "correct": false / "failed" > 0;
// the exit code is non-zero only when no result could be produced.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintParams(const RunOutcome& out) {
  std::string line = "{\"params\": {";
  bool first = true;
  for (const auto& [k, v] : out.params) {
    line += (first ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first = false;
  }
  line += "}, \"errors\": [";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    line += (i == 0 ? "" : ", ") + JsonString(out.errors[i]);
  }
  std::printf("%s]}\n", line.c_str());
}

void PrintResult(const RunOutcome& out, const Results& metrics) {
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: dsketch_perfbench --workload <ingest|serve_mixed|"
               "replica|window_decay> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  unsigned long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }
  if (!(seconds > 0.0)) return Usage();
  Spec spec;
  try {
    spec = MakeSpec(workload, smoke);
  } catch (const std::invalid_argument&) {
    return Usage();
  }
  const Plan plan = MakePlan(spec, seed);
  RunOutcome out = RunWorkload(plan, seconds, trace);
  if (trace) RunLayerProbes(plan, &out);
  PrintParams(out);
  PrintResult(out, trace ? out.per_layer : out.end_to_end);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsketch_perfbench: %s\n", e.what());
    return 1;
  }
}
