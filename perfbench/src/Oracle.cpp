//===- perfbench/src/Oracle.cpp - Pinned reference results ----------------===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/Json.h"
#include "support/StringUtils.h"

using namespace dsm;

namespace perfbench {

Reference referenceOf(const RunOutput &Out) {
  Reference R;
  R.WallCycles = Out.Result.WallCycles;
  R.Counters = Out.Result.Counters.str();
  R.Checksums = Out.Checksums;
  return R;
}

Reference referenceOf(const serve::Response &Resp) {
  Reference R;
  R.WallCycles = Resp.WallCycles;
  R.Counters = Resp.Counters;
  for (const auto &C : Resp.Checksums)
    R.Checksums.emplace_back(C.Sum, C.Weighted);
  return R;
}

static bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof A) == 0;
}

std::string mismatch(const Reference &Want, const Reference &Got) {
  if (Want.WallCycles != Got.WallCycles)
    return formatString("wall cycles %llu, want %llu",
                        static_cast<unsigned long long>(Got.WallCycles),
                        static_cast<unsigned long long>(Want.WallCycles));
  if (Want.Counters != Got.Counters)
    return "counters '" + Got.Counters + "', want '" + Want.Counters + "'";
  if (Want.Checksums.size() != Got.Checksums.size())
    return "checksum count differs";
  for (size_t I = 0; I < Want.Checksums.size(); ++I)
    if (!sameBits(Want.Checksums[I].first, Got.Checksums[I].first) ||
        !sameBits(Want.Checksums[I].second, Got.Checksums[I].second))
      return formatString("checksum %zu is (%.17g, %.17g), want "
                          "(%.17g, %.17g)",
                          I, Got.Checksums[I].first,
                          Got.Checksums[I].second, Want.Checksums[I].first,
                          Want.Checksums[I].second);
  return "";
}

Expected<Reference> interpReference(const Kernel &K, double *Seconds) {
  auto Prog = dsm::compile(K.sources());
  if (!Prog)
    return Prog.takeError();
  exec::RunOptions O = K.runOptions();
  O.Engine = exec::RunOptions::EngineKind::Interp;
  O.HostThreads = 1;
  auto T0 = std::chrono::steady_clock::now();
  auto Out = dsm::run(*Prog, K.Machine, O, K.ChecksumArrays);
  auto T1 = std::chrono::steady_clock::now();
  if (!Out)
    return Out.takeError();
  if (Seconds)
    *Seconds = std::chrono::duration<double>(T1 - T0).count();
  return referenceOf(*Out);
}

Expected<PinnedTable> loadPinned(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return Error::make("cannot read pinned references '" + Path + "'");
  std::stringstream SS;
  SS << In.rdbuf();
  auto Doc = json::parse(SS.str(), Path);
  if (!Doc)
    return Doc.takeError();
  if (!Doc->isObject())
    return Error::make(Path + ": expected an object of kernels");
  PinnedTable T;
  for (const auto &[Name, V] : Doc->members()) {
    Reference R;
    if (!V["wall_cycles"].isNumber() || !V["counters"].isString() ||
        !V["checksums"].isArray())
      return Error::make(Path + ": malformed entry '" + Name + "'");
    R.WallCycles = static_cast<uint64_t>(V["wall_cycles"].asInt());
    R.Counters = V["counters"].asString();
    for (const json::Value &C : V["checksums"].array()) {
      if (!C.isArray() || C.array().size() != 2)
        return Error::make(Path + ": malformed checksum in '" + Name + "'");
      R.Checksums.emplace_back(C.array()[0].asNumber(),
                               C.array()[1].asNumber());
    }
    T[Name] = std::move(R);
  }
  return T;
}

std::string pinnedJson(const std::string &Name, const Reference &R) {
  std::string S = formatString(
      "\"%s\": {\"wall_cycles\": %llu, \"counters\": \"%s\", "
      "\"checksums\": [",
      json::escape(Name).c_str(),
      static_cast<unsigned long long>(R.WallCycles),
      json::escape(R.Counters).c_str());
  for (size_t I = 0; I < R.Checksums.size(); ++I)
    S += formatString("%s[%.17g, %.17g]", I ? ", " : "",
                      R.Checksums[I].first, R.Checksums[I].second);
  return S + "]}";
}

} // namespace perfbench
