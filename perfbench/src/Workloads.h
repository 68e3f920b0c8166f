//===- perfbench/src/Workloads.h - Benchmark kernels ------------*- C++ -*-===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DSM Fortran kernels the benchmark runs.  The sources come from the
/// figure benches' generators (bench/Workloads.h); reference.json pins
/// their results, so a change to those programs fails the benchmark's
/// oracle.  Every kernel names the machine, processor count and host
/// threads it runs with, so a timed run never depends on the environment.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/Dsm.h"

namespace perfbench {

/// One program plus everything needed to run it reproducibly.
struct Kernel {
  /// Key into the pinned reference table (reference.json).
  std::string Name;
  std::string Source;
  dsm::numa::MachineConfig Machine;
  int Procs = 1;
  int HostThreads = 1;
  std::vector<std::string> ChecksumArrays;

  /// RunOptions for a timed run: default (bytecode) engine, explicit
  /// host threads, Perf on.  Nothing is left to DSM_* variables.
  dsm::exec::RunOptions runOptions() const;
  std::vector<dsm::SourceFile> sources() const {
    return {{Name + ".f", Source}};
  }
};

/// Scaled NAS-LU SSOR kernel (paper Section 8.1, Fig 4), U/V(5,n,n,nz),
/// one iteration: dsmbench::luWorkload.  \p Reshaped is its reshaped
/// version, with c$distribute_reshape (*,block,block,*) and doacross
/// nests; otherwise it is the serial baseline.  \p Tag is appended as a comment line, which changes the
/// source text (and so the compile-cache key) but not the program.
std::string luSource(int N, int Nz, bool Reshaped, const std::string &Tag);

/// 2-D convolution with two levels of parallelism (paper Section 8.3,
/// Fig 7), one rep: dsmbench::convolution2DWorkload, A, B(n,n)
/// distributed (block,block), reshaped or regular.
std::string convSource(int N, bool Reshaped, const std::string &Tag);

/// The Fig 4 machine: the scaled Origin with node memory at 3/4 of the
/// LU dataset, so even P=1 has remote references (as in the paper).
dsm::numa::MachineConfig luMachine(int N, int Nz);

/// Host threads for threaded epochs: the host's core count, at most 8.
int hostThreads();

/// lu_serial: the serial LU kernel, P=1, 1 host thread.
Kernel luSerialKernel(int N, int Nz, const std::string &Tag);

/// conv_reshaped_p64: conv (block,block) reshaped, P procs,
/// hostThreads() host threads.
Kernel convReshapedKernel(int N, int Procs, const std::string &Tag);

/// The serve_mix variant catalog: small LU and conv kernels of a few
/// milliseconds each.  Weight is the variant's share of the request mix
/// in ServeWeightTotal-ths.  \p Smoke shrinks them for the benchmark's
/// tests.
constexpr int ServeWeightTotal = 50;
struct ServeVariant {
  Kernel K;
  int Weight = 1;
};
std::vector<ServeVariant> serveCatalog(bool Smoke);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
