//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload lu_serial|conv_reshaped_p64|serve_mix
//             --seed N --seconds S --trace 0|1
//             [--reference FILE] [--spans FILE] [--smoke]
//   perfbench --pin [--smoke]
//
// Prints notes, then one JSON line: correct, attempted, failed, and the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// --pin prints a reference.json computed with the interpreter.  Exits 0
// when the run completed (even if a result was wrong: "correct" says so),
// 1 on bad arguments or an unreadable reference file.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <string>

#include "Bench.h"

using namespace perfbench;

static int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--reference FILE] [--spans FILE] [--smoke]\n"
               "       perfbench --pin [--smoke]\n"
               "workloads: lu_serial conv_reshaped_p64 serve_mix\n");
  return 1;
}

/// Prints reference.json for every kernel the benchmark checks.
static int pin(bool Smoke) {
  std::vector<Kernel> Ks;
  for (const char *W : {"lu_serial", "conv_reshaped_p64"}) {
    Config C;
    C.Workload = W;
    C.Smoke = Smoke;
    Ks.push_back(batchKernel(C));
  }
  for (const ServeVariant &V : serveCatalog(Smoke))
    Ks.push_back(V.K);
  std::printf("{\n");
  for (size_t I = 0; I < Ks.size(); ++I) {
    auto Ref = interpReference(Ks[I]);
    if (!Ref) {
      std::fprintf(stderr, "%s: %s\n", Ks[I].Name.c_str(),
                   Ref.takeError().str().c_str());
      return 1;
    }
    std::printf("  %s%s\n", pinnedJson(Ks[I].Name, *Ref).c_str(),
                I + 1 < Ks.size() ? "," : "");
  }
  std::printf("}\n");
  return 0;
}

int main(int argc, char **argv) {
  Config C;
  std::string RefPath = "perfbench/reference.json";
  bool Pin = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--smoke") {
      C.Smoke = true;
    } else if (A == "--pin") {
      Pin = true;
    } else if ((A == "--workload" || A == "--seed" || A == "--seconds" ||
                A == "--trace" || A == "--reference" || A == "--spans") &&
               (V = Next())) {
      if (A == "--workload")
        C.Workload = V;
      else if (A == "--seed")
        C.Seed = std::strtoull(V, nullptr, 10);
      else if (A == "--seconds")
        C.Seconds = std::atof(V);
      else if (A == "--trace")
        C.Trace = std::atoi(V) != 0;
      else if (A == "--reference")
        RefPath = V;
      else
        C.SpanPath = V;
    } else {
      return usage();
    }
  }
  if (Pin)
    return pin(C.Smoke);
  if (C.Seconds <= 0 || (C.Workload != "lu_serial" &&
                         C.Workload != "conv_reshaped_p64" &&
                         C.Workload != "serve_mix"))
    return usage();

  auto Pinned = loadPinned(RefPath);
  if (!Pinned) {
    std::fprintf(stderr, "perfbench: %s\n", Pinned.takeError().str().c_str());
    return 1;
  }
  C.Pinned = std::move(*Pinned);

  Result R = C.Workload == "serve_mix" ? runServe(C) : runBatch(C);
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  std::printf("# fail_frac %.6g (%llu of %llu ops failed)\n",
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 1.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  std::printf("%s\n", resultJson(R, C.Trace).c_str());
  return 0;
}
