//===- AndroidHarnessTest.cpp - Section 4.2 harness tests -----------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Workload/AndroidHarness.h"

#include "o2/IR/Parser.h"
#include "o2/IR/Verifier.h"
#include "o2/Analysis/AnalysisManager.h"

#include <gtest/gtest.h>

using namespace o2;

namespace {

/// An Android-shaped app with no main(): the home activity's onCreate
/// spawns a background thread and starts a second activity; both the
/// handler and the thread touch shared state.
const char *App = R"(
  class Obj { field v: int; }
  global appState: Obj;

  class BgThread {
    method run() {
      var o: Obj;
      var x: int;
      o = @appState;
      o.v = x;
    }
  }

  class SettingsActivity {
    method onCreate() { }
    method onReceive() {
      var o: Obj;
      var x: int;
      o = @appState;
      x = o.v;
    }
  }

  func startActivity(a: SettingsActivity) { }

  class MainActivity {
    method onCreate() {
      var o: Obj;
      var t: BgThread;
      var settings: SettingsActivity;
      o = new Obj;
      @appState = o;
      t = new BgThread;
      spawn t.run();
      settings = new SettingsActivity;
      startActivity(settings);
    }
    method onReceive() {
      var o: Obj;
      var x: int;
      o = @appState;
      x = o.v;
    }
  }
)";

std::unique_ptr<Module> parseApp() {
  std::string Err;
  auto M = parseModule(App, Err, "app");
  EXPECT_TRUE(M) << Err;
  return M;
}

TEST(AndroidHarnessTest, SynthesizesVerifiableMain) {
  auto M = parseApp();
  EXPECT_EQ(M->getMain(), nullptr);
  Function *Main = buildAndroidHarness(*M, "MainActivity");
  ASSERT_NE(Main, nullptr);
  EXPECT_EQ(M->getMain(), Main);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors))
      << (Errors.empty() ? "?" : Errors.front());
}

TEST(AndroidHarnessTest, LifecycleIsCalledEventsAreSpawned) {
  auto M = parseApp();
  ASSERT_TRUE(buildAndroidHarness(*M, "MainActivity"));
  unsigned Calls = 0, Spawns = 0, Allocs = 0;
  for (const auto &S : M->getMain()->body()) {
    if (isa<CallStmt>(S.get()))
      ++Calls;
    else if (const auto *Sp = dyn_cast<SpawnStmt>(S.get())) {
      ++Spawns;
      EXPECT_TRUE(Sp->isInLoop()); // handlers dispatch repeatedly
    } else if (isa<AllocStmt>(S.get())) {
      ++Allocs;
    }
  }
  // Both activities allocated; onCreate called on both; one onReceive
  // spawned per activity.
  EXPECT_EQ(Allocs, 2u);
  EXPECT_EQ(Calls, 2u);
  EXPECT_EQ(Spawns, 2u);
}

TEST(AndroidHarnessTest, StartedActivityIsHarnessed) {
  auto M = parseApp();
  ASSERT_TRUE(buildAndroidHarness(*M, "MainActivity"));
  AnalysisManager Result(*M);
  // The second activity's handler is a live origin: it reads appState.
  bool SettingsReached = false;
  for (const auto &[F, C] : Result.getPTA().instances()) {
    (void)C;
    if (F->getClass() &&
        F->getClass()->getName() == "SettingsActivity" &&
        F->getName() == "onReceive")
      SettingsReached = true;
  }
  EXPECT_TRUE(SettingsReached);
}

TEST(AndroidHarnessTest, FindsTheThreadEventRace) {
  auto M = parseApp();
  ASSERT_TRUE(buildAndroidHarness(*M, "MainActivity"));
  AnalysisManager Result(*M);
  // Races: the background thread's write vs. each handler's read (the
  // handlers themselves are looper-serialized).
  ASSERT_GE(Result.getRaces().numRaces(), 1u);
  for (const Race &R : Result.getRaces().races()) {
    OriginKind KA = Result.getSHB().thread(R.ThreadA).Kind;
    OriginKind KB = Result.getSHB().thread(R.ThreadB).Kind;
    EXPECT_TRUE(KA == OriginKind::Thread || KB == OriginKind::Thread);
  }
}

TEST(AndroidHarnessTest, RefusesWhenMainExistsOrClassMissing) {
  auto M = parseApp();
  EXPECT_EQ(buildAndroidHarness(*M, "NoSuchActivity"), nullptr);
  ASSERT_TRUE(buildAndroidHarness(*M, "MainActivity"));
  EXPECT_EQ(buildAndroidHarness(*M, "MainActivity"), nullptr);
}

} // namespace
