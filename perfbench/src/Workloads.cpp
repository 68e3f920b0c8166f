//===- perfbench/src/Workloads.cpp - Benchmark kernels --------------------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <thread>

#include "bench/Workloads.h"
#include "support/StringUtils.h"

using namespace dsm;

namespace perfbench {

exec::RunOptions Kernel::runOptions() const {
  exec::RunOptions O;
  O.NumProcs = Procs;
  O.Perf = true;
  O.HostThreads = HostThreads;
  O.Engine = exec::RunOptions::EngineKind::Bytecode;
  return O;
}

std::string luSource(int N, int Nz, bool Reshaped, const std::string &Tag) {
  using dsmbench::Version;
  return dsmbench::luWorkload(N, Nz, /*Iters=*/1)(Version::Reshaped,
                                                   /*Serial=*/!Reshaped) +
         "* " + Tag + "\n";
}

std::string convSource(int N, bool Reshaped, const std::string &Tag) {
  using dsmbench::Version;
  return dsmbench::convolution2DWorkload(N, /*Reps=*/1)(
             Reshaped ? Version::Reshaped : Version::Regular,
             /*Serial=*/false) +
         "* " + Tag + "\n";
}

numa::MachineConfig luMachine(int N, int Nz) {
  numa::MachineConfig MC = numa::MachineConfig::scaledOrigin();
  uint64_t DataBytes = 2ull * 5 * N * N * Nz * 8;
  MC.NodeMemoryBytes = DataBytes * 3 / 4;
  MC.NodeMemoryBytes -= MC.NodeMemoryBytes % MC.PageSize;
  return MC;
}

int hostThreads() {
  unsigned HC = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(HC, 1u, 8u));
}

Kernel luSerialKernel(int N, int Nz, const std::string &Tag) {
  Kernel K;
  K.Name = formatString("lu_serial_%d_%d", N, Nz);
  K.Source = luSource(N, Nz, /*Reshaped=*/false, Tag);
  K.Machine = luMachine(N, Nz);
  K.ChecksumArrays = {"u", "v"};
  return K;
}

Kernel convReshapedKernel(int N, int Procs, const std::string &Tag) {
  Kernel K;
  K.Name = formatString("conv_reshaped_%d_p%d", N, Procs);
  K.Source = convSource(N, /*Reshaped=*/true, Tag);
  K.Machine = numa::MachineConfig::scaledOrigin();
  K.Procs = Procs;
  K.HostThreads = std::min(hostThreads(), Procs);
  K.ChecksumArrays = {"a"};
  return K;
}

std::vector<ServeVariant> serveCatalog(bool Smoke) {
  // Sizes give bytecode run times of about 4 to 35 ms on one x86 core;
  // weights are 50ths of the mix.  The serial LU 16 is about half of the
  // mix and the fast serial LU 12 a quarter below it, so the median
  // request is the middle of the LU 16 cluster, where samples are
  // densest.  The heavy serial LU 28 is 2 in 50 and runs well above every
  // other variant, so the p99 of 1400 requests lies inside its cluster
  // (about its 75th percentile) and does not flip between variants from
  // one seed to the next.
  struct Spec {
    bool Lu;
    int N, Nz, Procs;
    bool Reshaped;
    int Weight;
  };
  const Spec Full[] = {
      {true, 12, 4, 1, false, 12},  {true, 16, 4, 1, false, 24},
      {true, 14, 4, 4, true, 3},    {false, 96, 0, 16, true, 6},
      {false, 100, 0, 4, false, 3}, {true, 28, 4, 1, false, 2},
  };
  const Spec Tiny[] = {
      {true, 6, 2, 1, false, 12},  {true, 8, 2, 1, false, 24},
      {true, 8, 2, 4, true, 3},    {false, 16, 0, 4, true, 6},
      {false, 16, 0, 2, false, 3}, {true, 10, 2, 1, false, 2},
  };
  std::vector<ServeVariant> Out;
  for (const Spec &S : Smoke ? std::vector<Spec>(std::begin(Tiny),
                                                  std::end(Tiny))
                             : std::vector<Spec>(std::begin(Full),
                                                 std::end(Full))) {
    ServeVariant V;
    V.Weight = S.Weight;
    Kernel &K = V.K;
    K.Procs = S.Procs;
    if (S.Lu) {
      K.Name = formatString("serve_lu_%d_%d_p%d%s", S.N, S.Nz, S.Procs,
                            S.Reshaped ? "_reshaped" : "");
      K.Source = luSource(S.N, S.Nz, S.Reshaped, "perfbench serve");
      K.ChecksumArrays = {"u", "v"};
    } else {
      K.Name = formatString("serve_conv_%d_p%d%s", S.N, S.Procs,
                            S.Reshaped ? "_reshaped" : "");
      K.Source = convSource(S.N, S.Reshaped, "perfbench serve");
      K.ChecksumArrays = {"a"};
    }
    // The wire names machines; "scaled" is the only one small enough.
    K.Machine = numa::MachineConfig::scaledOrigin();
    Out.push_back(std::move(V));
  }
  return Out;
}

} // namespace perfbench
