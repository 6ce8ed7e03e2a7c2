// Regenerates the golden fixtures under tests/golden/. Run it only when the
// drivers' observable behaviour or the generated schedules are *meant* to
// change; the fixtures freeze the outputs a refactor must reproduce byte
// for byte.
//
//   make_er_golden <output-dir>

#include <cstdio>
#include <fstream>
#include <string>

#include "er_golden_util.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_er_golden <output-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  const auto write = [&](const std::string& name, const std::string& content) {
    const std::string path = dir + "/" + name + ".golden";
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << content;
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
    return true;
  };
  for (const std::string& name : progres::testing_util::GoldenDriverNames()) {
    if (!write(name, progres::testing_util::RunGoldenDriver(name))) return 1;
  }
  if (!write("trace_progressive", progres::testing_util::GoldenTraceJson()) ||
      !write("schedule", progres::testing_util::GoldenScheduleDump()) ||
      !write("progressive_budget",
             progres::testing_util::GoldenBudgetDump())) {
    return 1;
  }
  return 0;
}
