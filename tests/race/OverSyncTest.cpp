//===- OverSyncTest.cpp - over-synchronization analysis tests -------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Race/OverSync.h"

#include "ReportFacts.h"
#include "o2/Analysis/AnalysisManager.h"
#include "o2/Driver/Driver.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Support/OutputStream.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace o2;

namespace {

std::unique_ptr<Module> parseProgram(std::string_view Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_TRUE(M) << "parse error: " << Err;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
  return M;
}

/// Over-sync under OPA on the graph the manager builds, which stores only
/// the accesses OSA flags; checked against the graph that stores all.
OverSyncReport analyze(const Module &M) {
  PTAOptions Opts;
  Opts.Kind = ContextKind::Origin;
  auto PTA = runPointerAnalysis(M, Opts);
  SharingResult Sharing = runSharingAnalysis(*PTA);
  OverSyncReport R =
      detectOverSynchronization(Sharing, buildSHBGraph(*PTA, {}, &Sharing));
  EXPECT_EQ(test::overSyncFacts(R),
            test::overSyncFacts(detectOverSynchronization(
                Sharing, buildSHBGraph(*PTA))));
  return R;
}

TEST(OverSyncTest, LockOverOriginLocalDataFlagged) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field lk: Obj;
      method init(lk: Obj) { this.lk = lk; }
      method run() {
        var o: Obj;
        var l: Obj;
        var x: int;
        o = new Obj;
        l = this.lk;
        acquire l;
        o.v = x;
        x = o.v;
        release l;
      }
    }
    func main() {
      var lk: Obj;
      var t1: T;
      var t2: T;
      lk = new Obj;
      t1 = new T(lk);
      t2 = new T(lk);
      spawn t1.run();
      spawn t2.run();
    }
  )");
  OverSyncReport R = analyze(*M);
  // Each thread's lock region guards only its own local object.
  EXPECT_EQ(R.numRegions(), 2u);
  EXPECT_EQ(R.regions()[0].NumAccesses, 2u);
}

TEST(OverSyncTest, LockOverSharedDataNotFlagged) {
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      field lk: Obj;
      method init(s: Obj, lk: Obj) { this.s = s; this.lk = lk; }
      method run() {
        var o: Obj;
        var l: Obj;
        var x: int;
        o = this.s;
        l = this.lk;
        acquire l;
        o.v = x;
        release l;
      }
    }
    func main() {
      var s: Obj;
      var lk: Obj;
      var t1: T;
      var t2: T;
      s = new Obj;
      lk = new Obj;
      t1 = new T(s, lk);
      t2 = new T(s, lk);
      spawn t1.run();
      spawn t2.run();
    }
  )");
  OverSyncReport R = analyze(*M);
  EXPECT_EQ(R.numRegions(), 0u);
  EXPECT_GE(R.numRegionsChecked(), 2u);
}

TEST(OverSyncTest, MixedRegionNotFlagged) {
  // A region touching one shared and one local location is doing real
  // work: not over-synchronization.
  auto M = parseProgram(R"(
    class Obj { field v: int; }
    class T {
      field s: Obj;
      field lk: Obj;
      method init(s: Obj, lk: Obj) { this.s = s; this.lk = lk; }
      method run() {
        var o: Obj;
        var mine: Obj;
        var l: Obj;
        var x: int;
        o = this.s;
        mine = new Obj;
        l = this.lk;
        acquire l;
        mine.v = x;
        o.v = x;
        release l;
      }
    }
    func main() {
      var s: Obj;
      var lk: Obj;
      var t1: T;
      var t2: T;
      s = new Obj;
      lk = new Obj;
      t1 = new T(s, lk);
      t2 = new T(s, lk);
      spawn t1.run();
      spawn t2.run();
    }
  )");
  OverSyncReport R = analyze(*M);
  EXPECT_EQ(R.numRegions(), 0u);
}

TEST(OverSyncTest, EmptyRegionsNotReported) {
  auto M = parseProgram(R"(
    class Obj { }
    class T {
      field lk: Obj;
      method init(lk: Obj) { this.lk = lk; }
      method run() {
        var l: Obj;
        l = this.lk;
        acquire l;
        release l;
      }
    }
    func main() {
      var lk: Obj;
      var t: T;
      lk = new Obj;
      t = new T(lk);
      spawn t.run();
    }
  )");
  OverSyncReport R = analyze(*M);
  EXPECT_EQ(R.numRegions(), 0u);
}

TEST(OverSyncTest, ReportPrints) {
  // The driver's text view renders the section from the job's records.
  JobSpec Spec;
  Spec.Name = "oversync";
  Spec.Source = R"(
    class Obj { field v: int; }
    class T {
      field lk: Obj;
      method init(lk: Obj) { this.lk = lk; }
      method run() {
        var o: Obj;
        var l: Obj;
        var x: int;
        o = new Obj;
        l = this.lk;
        acquire l;
        o.v = x;
        release l;
      }
    }
    func main() {
      var lk: Obj;
      var t1: T;
      var t2: T;
      lk = new Obj;
      t1 = new T(lk);
      t2 = new T(lk);
      spawn t1.run();
      spawn t2.run();
    }
  )";
  BatchOptions Opts;
  Opts.Analyses = {O2Phase::OverSync};
  JobResult J = runOneJob(Spec, Opts);
  ASSERT_FALSE(J.OverSyncs.empty());
  std::string Buf;
  StringOutputStream OS(Buf);
  printJobText(J, OS);
  EXPECT_NE(Buf.find("over-synchronized region(s)"), std::string::npos)
      << Buf;
  EXPECT_NE(Buf.find("lock region at 'acquire l' in run guards only "
                     "origin-local data (1 access(es))"),
            std::string::npos)
      << Buf;
}

TEST(OverSyncTest, SameRegionsUnderEveryContextKind) {
  // The pass reads the pipeline's sharing table: OSA's under origin
  // contexts, the SHB threads' under the others. Without a table there,
  // every lock region would look as if it guarded only origin-local data,
  // and so would --degrade's context-insensitive fallback.
  for (const char *Name : {"locked_account", "producer_consumer"}) {
    std::ifstream In(std::string(O2_OIR_DIR) + "/" + Name + ".oir");
    std::stringstream Src;
    Src << In.rdbuf();
    auto M = parseProgram(Src.str());
    ASSERT_TRUE(M) << Name;
    auto Regions = [&](ContextKind Kind) {
      O2Config Config;
      Config.PTA.Kind = Kind;
      AnalysisManager AM(*M, Config);
      const OverSyncReport &R = AM.getOverSync();
      return std::make_pair(R.numRegions(), test::overSyncFacts(R));
    };
    auto Origin = Regions(ContextKind::Origin);
    EXPECT_EQ(Origin.first, 0u) << Name << ": " << Origin.second;
    for (ContextKind Kind : {ContextKind::Insensitive, ContextKind::KCallsite,
                             ContextKind::KObject})
      EXPECT_EQ(Regions(Kind).second, Origin.second)
          << Name << " under context kind " << unsigned(Kind);
  }
}

} // namespace
