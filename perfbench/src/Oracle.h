//===- perfbench/src/Oracle.h - Pinned reference results --------*- C++ -*-===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness oracle.  A kernel's reference is its simulated wall
/// cycles, the numa::Counters string, and the plain and position-weighted
/// checksum of each checked array.  References are computed at set-up
/// with the independent tree-walking interpreter, cross-checked against
/// the values pinned in reference.json, and every timed run and every
/// serve reply is compared with them bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "Workloads.h"
#include "serve/Protocol.h"

namespace perfbench {

struct Reference {
  uint64_t WallCycles = 0;
  std::string Counters;
  /// (plain, weighted) per checked array, in Kernel::ChecksumArrays order.
  std::vector<std::pair<double, double>> Checksums;
};

Reference referenceOf(const dsm::RunOutput &Out);
Reference referenceOf(const dsm::serve::Response &R);

/// Empty when \p Got equals \p Want bit for bit, else what differs.
std::string mismatch(const Reference &Want, const Reference &Got);

/// Runs \p K once with the interpreter (HostThreads = 1) and returns its
/// reference; \p Seconds receives the run's host time.
dsm::Expected<Reference> interpReference(const Kernel &K,
                                         double *Seconds = nullptr);

/// Kernel name -> pinned reference.
using PinnedTable = std::map<std::string, Reference>;

dsm::Expected<PinnedTable> loadPinned(const std::string &Path);
/// One reference.json member, for pinning new kernels.
std::string pinnedJson(const std::string &Name, const Reference &R);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
