// Provenance gate for the benchmark JSON emitters.
//
// Every BENCH_*.json report stamps SOR_GIT_SHA so numbers stay comparable
// across revisions. A dirty working tree makes that sha a lie — the binary
// was built from code the sha does not describe — so the emitters refuse to
// run unless the tree was clean or the caller explicitly passes
// --allow-dirty (for throwaway local runs that will not be blessed).
//
// Dirtiness is sampled when CMake configures (SOR_GIT_DIRTY); re-run cmake
// after committing to clear the flag.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>

#include "bench_args.hpp"

namespace sor::bench {

// Parses `--flag [value]` arguments and exits 2 naming the first flag not
// in `allowed`, so a typo or `--help` fails loudly instead of silently
// running the default sweep. Every emitter lists "allow-dirty".
inline cli::Args ParseFlags(int argc, char** argv,
                            std::initializer_list<std::string_view> allowed) {
  const cli::Args args(argc - 1, argv + 1);
  if (!args.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], args.error().c_str());
    std::exit(2);
  }
  if (const std::string unknown = args.FirstUnknown(allowed);
      !unknown.empty()) {
    std::fprintf(stderr, "%s: unknown flag '--%s'\n", argv[0],
                 unknown.c_str());
    std::exit(2);
  }
  return args;
}

inline void RequireCleanTree(const cli::Args& args, const char* program) {
#if SOR_GIT_DIRTY
  if (!args.Has("allow-dirty")) {
    std::fprintf(stderr,
                 "%s: refusing to emit benchmark JSON from a dirty tree "
                 "(git sha %s does not describe the code built).\n"
                 "Commit and re-run cmake, or pass --allow-dirty for a "
                 "throwaway run.\n",
                 program, SOR_GIT_SHA);
    std::exit(1);
  }
#else
  (void)args;
  (void)program;
#endif
}

}  // namespace sor::bench
