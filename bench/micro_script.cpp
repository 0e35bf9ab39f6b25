// micro_script — what a SenseScript run costs on the engine phones run.
//
// One JSON object on stdout timing the IR executor, unoptimized (what a
// phone runs) and optimized, on two workloads:
//
//   * sensing        — the shape of a real sensing task: one acquisition,
//                      a reduction loop over the samples, two stdlib calls
//   * loop_heavy_10k — a 10'000-iteration arithmetic loop, the worst case
//                      the analyzer's step budget is protecting against
//
// Columns:
//
//   * ir     — execute the lowered module as is (TaskInstance's path)
//   * ir_opt — constant propagation + CheckDef elision + DCE first
//
// Both exclude lowering: a phone lowers a task's script once and executes
// it at every scheduled instant, so parse/lower/optimize are one-shot
// costs, reported separately. Loop timings use steady_clock around a
// fixed iteration count with an empty-asm sink, same discipline as
// micro_db. BENCH_micro_script.json records a blessed run.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "script/analysis/passes.hpp"
#include "script/interpreter.hpp"
#include "script/ir/exec.hpp"
#include "script/ir/lower.hpp"
#include "script/parser.hpp"
#include "json_gate.hpp"

namespace {

using Clock = std::chrono::steady_clock;
namespace script = sor::script;

template <typename T>
inline void Sink(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

double NsPerOp(Clock::time_point t0, Clock::time_point t1,
               std::uint64_t iters) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

const char* kSensingScript = R"(
local readings = get_fake_readings(10)
local sum = 0
for i = 1, len(readings) do
  sum = sum + readings[i]
end
local avg = sum / len(readings)
local sd = stddev(readings)
result = avg + sd
)";

const char* kLoopHeavyScript =
    "local s = 0\nfor i = 1, 10000 do s = s + i end\nreturn s";

script::HostRegistry MakeHost() {
  script::HostRegistry host;
  script::InstallStdlib(host);
  host.Register("get_fake_readings",
                [](std::span<const script::Value> args)
                    -> sor::Result<script::Value> {
                  int n = 10;
                  if (!args.empty() && args[0].is_number())
                    n = static_cast<int>(args[0].as_number());
                  script::List values;
                  for (int i = 0; i < n; ++i)
                    values.emplace_back(9.8 + 0.01 * i);
                  return script::Value(
                      std::make_shared<script::List>(std::move(values)));
                });
  return host;
}

struct EngineCosts {
  double ir_ns = 0;
  double ir_opt_ns = 0;
};

EngineCosts BenchEngines(const char* source, const script::HostRegistry& host,
                         std::uint64_t iters) {
  const script::Program program = script::Parse(source).value();
  const script::InterpreterOptions opts;
  EngineCosts out;
  {
    const script::ir::Module mod = script::ir::Lower(program);
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      auto r = script::ir::Execute(mod, host, opts);
      Sink(r.ok());
    }
    out.ir_ns = NsPerOp(t0, Clock::now(), iters);
  }
  {
    script::ir::Module mod = script::ir::Lower(program);
    script::analysis::OptimizeModule(mod);
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      auto r = script::ir::Execute(mod, host, opts);
      Sink(r.ok());
    }
    out.ir_opt_ns = NsPerOp(t0, Clock::now(), iters);
  }
  return out;
}

double BenchParse(const char* source, std::uint64_t iters) {
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto program = script::Parse(source);
    Sink(program.ok());
  }
  return NsPerOp(t0, Clock::now(), iters);
}

double BenchLower(const script::Program& program, std::uint64_t iters) {
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto mod = script::ir::Lower(program);
    Sink(mod.functions.size());
  }
  return NsPerOp(t0, Clock::now(), iters);
}

double BenchOptimize(const script::Program& program, std::uint64_t iters) {
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    auto mod = script::ir::Lower(program);
    script::analysis::OptimizeModule(mod);
    Sink(mod.functions.size());
  }
  return NsPerOp(t0, Clock::now(), iters);
}

}  // namespace

int main(int argc, char** argv) {
  sor::bench::RequireCleanTree(
      sor::bench::ParseFlags(argc, argv, {"allow-dirty"}), argv[0]);
  const script::HostRegistry host = MakeHost();
  const script::Program sensing = script::Parse(kSensingScript).value();

  const double parse_ns = BenchParse(kSensingScript, 50'000);
  const double lower_ns = BenchLower(sensing, 50'000);
  const double lower_optimize_ns = BenchOptimize(sensing, 20'000);
  const EngineCosts sensing_c = BenchEngines(kSensingScript, host, 50'000);
  const EngineCosts loop_c = BenchEngines(kLoopHeavyScript, host, 1'000);

  std::printf("{\n  \"bench\": \"micro_script\",\n");
  std::printf("  \"host_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"build_type\": \"%s\",\n", SOR_BUILD_TYPE);
  std::printf("  \"git_sha\": \"%s\",\n", SOR_GIT_SHA);
  std::printf("  \"one_shot_ns\": {\n");
  std::printf("    \"parse_sensing\": %.1f,\n", parse_ns);
  std::printf("    \"lower_sensing\": %.1f,\n", lower_ns);
  std::printf("    \"lower_optimize_sensing\": %.1f\n", lower_optimize_ns);
  std::printf("  },\n");
  std::printf("  \"per_run_ns\": {\n");
  std::printf("    \"sensing\": { \"ir\": %.1f, \"ir_opt\": %.1f },\n",
              sensing_c.ir_ns, sensing_c.ir_opt_ns);
  std::printf("    \"loop_heavy_10k\": { \"ir\": %.1f, \"ir_opt\": %.1f }\n",
              loop_c.ir_ns, loop_c.ir_opt_ns);
  std::printf("  }\n}\n");
  return 0;
}
