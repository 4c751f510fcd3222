//===- Generator.cpp - Synthetic workload generator ----------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//

#include "o2/Workload/Generator.h"

#include "o2/IR/IRBuilder.h"
#include "o2/Support/Compiler.h"

#include <cstdio>
#include <cstdlib>
#include <random>

using namespace o2;

namespace {

class WorkloadBuilder {
public:
  explicit WorkloadBuilder(const WorkloadProfile &P)
      : P(P), Rng(P.Seed), M(std::make_unique<Module>(P.Name)) {}

  std::unique_ptr<Module> build() {
    makeCoreClasses();
    makeSharedGlobals();
    makeLocalAllocWrappers();
    makeAmplifier();
    makeThreadClasses();
    makeEventClasses();
    makeNestedClasses();
    makePadding();
    makeMain();
    return std::move(M);
  }

private:
  unsigned numSharedData() const {
    return P.RacyObjects + P.LockedObjects + P.ReadOnlyObjects;
  }

  unsigned pick(unsigned Lo, unsigned Count) {
    assert(Count > 0 && "empty pick range");
    return Lo + static_cast<unsigned>(Rng() % Count);
  }

  void makeCoreClasses() {
    DataClass = M->addClass("Data");
    DataF0 = DataClass->addField("f0", M->getIntType());
    DataF1 = DataClass->addField("f1", M->getIntType());
    DataClass->addField("link", DataClass);
    LockClass = M->addClass("Lock");
    // Padding code uses its own class so its field names do not collide
    // with the concurrent workload's (field-name-keyed baselines would
    // otherwise drown in padding noise).
    PadClass = M->addClass("PadData");
    PadF0 = PadClass->addField("p0", M->getIntType());
    PadF1 = PadClass->addField("p1", M->getIntType());
    PadClass->addField("plink", PadClass);
  }

  void makeSharedGlobals() {
    for (unsigned I = 0; I < numSharedData(); ++I)
      DataGlobals.push_back(
          M->addGlobal("gData" + std::to_string(I), DataClass));
    for (unsigned I = 0; I < std::max(P.NumLocks, 1u); ++I)
      LockGlobals.push_back(
          M->addGlobal("gLock" + std::to_string(I), LockClass));
  }

  /// Allocation wrappers of depth 1..3 shared by every origin. The
  /// distinguishing call site sits d frames above the allocation, so a
  /// k-CFA analysis separates the per-origin objects iff k >= d.
  void makeLocalAllocWrappers() {
    // Depth 1: allocates directly.
    MakeD[0] = M->addFunction("makeLocalD1", DataClass);
    {
      IRBuilder B(*M, MakeD[0]);
      Variable *D = MakeD[0]->addLocal("d", DataClass);
      B.alloc(D, DataClass);
      B.ret(D);
    }
    // Depths 2 and 3: chains ending in the allocation.
    const char *Names2[] = {"makeLocalD2", "makeLocalD2_inner"};
    MakeD[1] = makeChain(Names2, 2);
    const char *Names3[] = {"makeLocalD3", "makeLocalD3_mid",
                            "makeLocalD3_inner"};
    MakeD[2] = makeChain(Names3, 3);
  }

  Function *makeChain(const char *const *Names, unsigned Len) {
    std::vector<Function *> Fns;
    for (unsigned I = 0; I < Len; ++I)
      Fns.push_back(M->addFunction(Names[I], DataClass));
    for (unsigned I = 0; I < Len; ++I) {
      IRBuilder B(*M, Fns[I]);
      Variable *D = Fns[I]->addLocal("d", DataClass);
      if (I + 1 < Len)
        B.callDirect(D, Fns[I + 1]);
      else
        B.alloc(D, DataClass);
      B.ret(D);
    }
    return Fns.front();
  }

  /// Builds the context amplifier: classes Util0..UtilL-1, each with a
  /// method m(d) that allocates FanOut next-layer receivers and calls
  /// m on each at a distinct call site. Context-sensitive analyses
  /// multiply instances along the layers; 0-ctx and OPA stay linear.
  void makeAmplifier() {
    if (P.AmplifierLayers == 0)
      return;
    unsigned FanOut = std::max(P.AmplifierFanOut, 1u);
    std::vector<ClassType *> Layers;
    std::vector<Function *> Methods;
    for (unsigned L = 0; L < P.AmplifierLayers; ++L) {
      ClassType *C = M->addClass("Util" + std::to_string(L));
      Function *Meth = M->addFunction("m");
      C->addMethod(Meth);
      Meth->addParam("this", C);
      Meth->addParam("d", DataClass);
      Layers.push_back(C);
      Methods.push_back(Meth);
    }
    for (unsigned L = 0; L < P.AmplifierLayers; ++L) {
      Function *Meth = Methods[L];
      IRBuilder B(*M, Meth);
      Variable *T = Meth->addLocal("t", M->getIntType());
      // Local padding so each amplified instance has real work.
      Variable *X = Meth->addLocal("x", DataClass);
      B.alloc(X, DataClass);
      for (unsigned S = 0; S < P.AmplifierStmtsPerMethod; ++S) {
        if (S % 2 == 0)
          B.fieldStore(X, DataF0, T);
        else
          B.fieldLoad(T, X, DataF1);
      }
      if (L + 1 < P.AmplifierLayers) {
        for (unsigned F = 0; F < FanOut; ++F) {
          Variable *N =
              Meth->addLocal("n" + std::to_string(F), Layers[L + 1]);
          B.alloc(N, Layers[L + 1]);
          B.call(nullptr, N, "m", {Meth->params()[1]});
        }
      } else {
        // Leaf: touch the threaded-through data (read only).
        B.fieldLoad(T, Meth->params()[1], DataF1);
      }
    }
    AmplifierRoot = Layers.front();
  }

  /// Emits one leaf workload into \p F (a method with 'this' that has
  /// Data field "att" and Lock field "lk").
  void emitLeafWork(Function *F, bool IsEventHandler) {
    IRBuilder B(*M, F);
    Variable *T = F->addLocal("t", M->getIntType());
    unsigned VarId = 0;
    auto FreshData = [&] {
      return F->addLocal("v" + std::to_string(VarId++), DataClass);
    };
    auto FreshLock = [&] {
      return F->addLocal("v" + std::to_string(VarId++), LockClass);
    };

    // Enter the context amplifier with a fresh per-origin data object.
    if (AmplifierRoot) {
      Variable *AD = FreshData();
      B.callDirect(AD, MakeD[0]);
      Variable *U = F->addLocal("u", AmplifierRoot);
      B.alloc(U, AmplifierRoot);
      B.call(nullptr, U, "m", {AD});
    }

    // Origin-local allocations through the shared wrapper chains.
    const unsigned PatternCounts[3] = {P.LocalPatternsDepth1,
                                       P.LocalPatternsDepth2,
                                       P.LocalPatternsDepth3};
    for (unsigned Depth = 0; Depth < 3; ++Depth) {
      for (unsigned I = 0; I < PatternCounts[Depth]; ++I) {
        Variable *LD = FreshData();
        B.callDirect(LD, MakeD[Depth]);
        B.fieldStore(LD, DataF0, T);
        B.fieldLoad(T, LD, DataF1);
      }
    }

    // Accesses through the constructor attribute (kept origin-precise by
    // OPA's attribute handling).
    if (!IsEventHandler) {
      Variable *Att = FreshData();
      B.fieldLoad(Att, F->params()[0], "att");
      B.fieldStore(Att, DataF0, T);
    }

    // Protected writes: lock is chosen by the target object, so all
    // origins agree on the guard.
    for (unsigned I = 0; I < P.ProtectedWritesPerOrigin; ++I) {
      if (P.LockedObjects == 0)
        break;
      unsigned K = pick(P.RacyObjects, P.LockedObjects);
      Variable *SD = FreshData();
      Variable *LV = FreshLock();
      B.globalLoad(SD, DataGlobals[K]);
      B.globalLoad(LV, LockGlobals[K % LockGlobals.size()]);
      B.acquire(LV);
      for (unsigned A = 0; A < std::max(P.AccessesPerLockRegion, 1u); ++A) {
        B.fieldStore(SD, DataF0, T);
        B.fieldLoad(T, SD, DataF1);
      }
      B.release(LV);
    }

    // Unprotected writes on the racy objects: the intended races.
    for (unsigned I = 0; I < P.UnprotectedWritesPerOrigin; ++I) {
      if (P.RacyObjects == 0)
        break;
      unsigned K = pick(0, P.RacyObjects);
      Variable *SD = FreshData();
      B.globalLoad(SD, DataGlobals[K]);
      B.fieldStore(SD, DataF0, T);
    }

    // Benign reads of the read-only objects.
    for (unsigned I = 0; I < P.ReadsPerOrigin; ++I) {
      if (P.ReadOnlyObjects == 0)
        break;
      unsigned K = pick(P.RacyObjects + P.LockedObjects, P.ReadOnlyObjects);
      Variable *SD = FreshData();
      B.globalLoad(SD, DataGlobals[K]);
      B.fieldLoad(T, SD, DataF1);
    }
  }

  /// Builds an origin class with an entry method chain of P.CallDepth.
  ClassType *makeOriginClass(const std::string &Name,
                             const std::string &EntryName,
                             bool IsEventHandler) {
    ClassType *C = M->addClass(Name);
    C->addField("att", DataClass);
    C->addField("lk", LockClass);
    if (!IsEventHandler) {
      Function *Init = M->addFunction("init");
      C->addMethod(Init);
      Variable *This = Init->addParam("this", C);
      Variable *A = Init->addParam("a", DataClass);
      Variable *L = Init->addParam("l", LockClass);
      IRBuilder B(*M, Init);
      B.fieldStore(This, "att", A);
      B.fieldStore(This, "lk", L);
    }

    // Entry -> step chain -> leaf.
    std::vector<Function *> Chain;
    Function *Entry = M->addFunction(EntryName);
    C->addMethod(Entry);
    Entry->addParam("this", C);
    Chain.push_back(Entry);
    for (unsigned D = 1; D < std::max(P.CallDepth, 1u); ++D) {
      Function *Step = M->addFunction("step" + std::to_string(D));
      C->addMethod(Step);
      Step->addParam("this", C);
      Chain.push_back(Step);
    }
    for (unsigned D = 0; D + 1 < Chain.size(); ++D) {
      IRBuilder B(*M, Chain[D]);
      B.call(nullptr, Chain[D]->params()[0], Chain[D + 1]->getName());
    }
    emitLeafWork(Chain.back(), IsEventHandler);
    return C;
  }

  void makeThreadClasses() {
    for (unsigned I = 0; I < P.NumThreads; ++I)
      ThreadClasses.push_back(
          makeOriginClass("Worker" + std::to_string(I), "run",
                          /*IsEventHandler=*/false));
  }

  void makeEventClasses() {
    for (unsigned I = 0; I < P.NumEventHandlers; ++I)
      EventClasses.push_back(
          makeOriginClass("Handler" + std::to_string(I), "handleEvent",
                          /*IsEventHandler=*/true));
  }

  /// Redis-style nested creation: Nest0 spawns Nest1 spawns ... the
  /// innermost performs one unprotected racy write.
  void makeNestedClasses() {
    if (P.NestedSpawnDepth == 0)
      return;
    ClassType *Inner = nullptr;
    for (unsigned D = P.NestedSpawnDepth; D-- > 0;) {
      ClassType *C = M->addClass("Nest" + std::to_string(D));
      Function *Run = M->addFunction("run");
      C->addMethod(Run);
      Variable *This = Run->addParam("this", C);
      (void)This;
      IRBuilder B(*M, Run);
      if (Inner) {
        Variable *Child = Run->addLocal("child", Inner);
        B.alloc(Child, Inner);
        B.spawn(Child, "run");
      } else if (P.RacyObjects > 0) {
        Variable *SD = Run->addLocal("sd", DataClass);
        Variable *T = Run->addLocal("t", M->getIntType());
        B.globalLoad(SD, DataGlobals[0]);
        B.fieldStore(SD, DataF0, T);
      }
      Inner = C;
    }
    NestRoot = Inner;
  }

  void makePadding() {
    Function *Prev = nullptr;
    for (unsigned I = 0; I < P.PaddingFunctions; ++I) {
      Function *F = M->addFunction("pad" + std::to_string(I));
      IRBuilder B(*M, F);
      Variable *D = F->addLocal("d", PadClass);
      Variable *E = F->addLocal("e", PadClass);
      Variable *T = F->addLocal("t", M->getIntType());
      B.alloc(D, PadClass);
      B.alloc(E, PadClass);
      for (unsigned S = 0; S < P.PaddingStmtsPerFunction; ++S) {
        switch (S % 5) {
        case 0:
          B.fieldStore(D, "plink", E);
          break;
        case 1:
          B.fieldLoad(E, D, "plink");
          break;
        case 2:
          B.fieldStore(E, PadF0, T);
          break;
        case 3:
          B.fieldLoad(T, E, PadF1);
          break;
        case 4:
          B.assign(D, E);
          break;
        }
      }
      if (Prev)
        B.callDirect(nullptr, Prev);
      Prev = F;
    }
    PaddingRoot = Prev;
  }

  void makeMain() {
    Function *Main = M->addFunction("main");
    IRBuilder B(*M, Main);
    Variable *T = Main->addLocal("t", M->getIntType());

    // Shared data and locks.
    std::vector<Variable *> DataVars;
    for (unsigned I = 0; I < numSharedData(); ++I) {
      Variable *D = Main->addLocal("d" + std::to_string(I), DataClass);
      B.alloc(D, DataClass);
      // Initialize before any spawn: ordered by happens-before.
      B.fieldStore(D, DataF0, T);
      B.fieldStore(D, DataF1, T);
      B.globalStore(DataGlobals[I], D);
      DataVars.push_back(D);
    }
    std::vector<Variable *> LockVars;
    for (unsigned I = 0; I < LockGlobals.size(); ++I) {
      Variable *L = Main->addLocal("l" + std::to_string(I), LockClass);
      B.alloc(L, LockClass);
      B.globalStore(LockGlobals[I], L);
      LockVars.push_back(L);
    }

    if (PaddingRoot)
      B.callDirect(nullptr, PaddingRoot);

    // Spawn the origins; attributes are a racy object and its lock.
    auto SpawnOrigin = [&](ClassType *C, const std::string &Entry,
                           bool WithCtor, unsigned Idx) {
      Variable *V = Main->addLocal("o" + std::to_string(NextOriginVar++), C);
      Variable *Att = DataVars[Idx % DataVars.size()];
      Variable *Lk = LockVars[Idx % LockVars.size()];
      if (P.SpawnInLoop)
        B.beginLoop();
      if (WithCtor)
        B.alloc(V, C, {Att, Lk});
      else
        B.alloc(V, C);
      B.spawn(V, Entry);
      if (P.SpawnInLoop)
        B.endLoop();
    };
    for (unsigned I = 0; I < ThreadClasses.size(); ++I)
      SpawnOrigin(ThreadClasses[I], "run", /*WithCtor=*/true, I);
    for (unsigned I = 0; I < EventClasses.size(); ++I)
      SpawnOrigin(EventClasses[I], "handleEvent", /*WithCtor=*/false, I);
    if (NestRoot) {
      Variable *N = Main->addLocal("nest", NestRoot);
      B.alloc(N, NestRoot);
      B.spawn(N, "run");
    }

    // Main also reads one racy object concurrently with the origins.
    if (P.RacyObjects > 0) {
      Variable *SD = Main->addLocal("mainRead", DataClass);
      B.globalLoad(SD, DataGlobals[0]);
      B.fieldLoad(T, SD, DataF1);
    }
  }

  const WorkloadProfile &P;
  std::mt19937_64 Rng;
  std::unique_ptr<Module> M;
  ClassType *DataClass = nullptr;
  Field *DataF0 = nullptr;
  Field *DataF1 = nullptr;
  ClassType *LockClass = nullptr;
  ClassType *PadClass = nullptr;
  Field *PadF0 = nullptr;
  Field *PadF1 = nullptr;
  std::vector<Global *> DataGlobals;
  std::vector<Global *> LockGlobals;
  Function *MakeD[3] = {nullptr, nullptr, nullptr};
  std::vector<ClassType *> ThreadClasses;
  std::vector<ClassType *> EventClasses;
  ClassType *NestRoot = nullptr;
  ClassType *AmplifierRoot = nullptr;
  Function *PaddingRoot = nullptr;
  unsigned NextOriginVar = 0;
};

} // namespace

std::unique_ptr<Module> o2::generateWorkload(const WorkloadProfile &P) {
  return WorkloadBuilder(P).build();
}

/// One profile per evaluation subject. #O (origin counts) follow Table 5;
/// size knobs are scaled to keep a full table run in seconds while
/// preserving the relative ordering of the paper's rows.
const std::vector<WorkloadProfile> &o2::benchmarkProfiles() {
  static const std::vector<WorkloadProfile> Profiles = [] {
    std::vector<WorkloadProfile> Ps;
    auto Add = [&Ps](std::string Name, unsigned Threads, unsigned Events,
                     unsigned Depth, unsigned Padding,
                     unsigned Racy = 1, unsigned Locked = 2,
                     unsigned Nested = 0, bool Loop = false,
                     unsigned AmpLayers = 4, unsigned AmpFanOut = 4) {
      WorkloadProfile P;
      P.Name = std::move(Name);
      P.NumThreads = Threads;
      P.NumEventHandlers = Events;
      P.CallDepth = Depth;
      P.PaddingFunctions = Padding;
      P.RacyObjects = Racy;
      P.LockedObjects = Locked;
      P.NestedSpawnDepth = Nested;
      P.SpawnInLoop = Loop;
      P.AmplifierLayers = AmpLayers;
      P.AmplifierFanOut = AmpFanOut;
      P.Seed = 0x02 + Ps.size();
      Ps.push_back(std::move(P));
    };
    // DaCapo-style JVM benchmarks (threads only). #O per Table 5; the
    // amplifier scale mirrors each subject's observed k-CFA/k-obj cost.
    // Amplifier fan-out mirrors each subject's observed deep-context
    // cost in the paper: rows whose 2-CFA/k-obj runs exploded or timed
    // out get large fan-outs (they then hit the bench node budget, the
    // ">4h" analogue), mild rows stay small.
    Add("avrora", 4, 0, 3, 60, 1, 2, 0, false, 4, 10);
    Add("batik", 4, 0, 4, 40, 1, 2, 0, false, 4, 30);
    Add("eclipse", 4, 0, 3, 30, 1, 2, 0, false, 4, 6);
    Add("h2", 3, 0, 5, 200, /*Racy=*/2, /*Locked=*/3, 0, false, 4, 24);
    Add("jython", 4, 0, 5, 160, /*Racy=*/2, 2, 0, false, 4, 10);
    Add("luindex", 3, 0, 4, 60, 1, 2, 0, false, 4, 12);
    Add("lusearch", 3, 0, 3, 30, 1, 2, 0, false, 4, 30);
    Add("pmd", 3, 0, 3, 30, 1, 2, 0, false, 3, 6);
    Add("sunflow", 9, 0, 3, 40, 1, 2, 0, false, 4, 6);
    Add("tomcat", 4, 2, 4, 50, 1, 2, 0, false, 4, 30);
    Add("tradebeans", 3, 0, 3, 30, 1, 2, 0, false, 3, 6);
    Add("tradesoap", 3, 0, 3, 35, 1, 2, 0, false, 3, 6);
    Add("xalan", 3, 0, 4, 110, 1, 2, 0, false, 4, 26);
    // Android apps: mostly event handlers, some threads.
    Add("connectbot", 3, 8, 3, 25, 1, 2, 0, false, 4, 28);
    Add("sipdroid", 4, 11, 3, 35, 1, 2, 0, false, 4, 28);
    Add("k9mail", 5, 18, 3, 45, 1, 2, 0, false, 4, 28);
    Add("tasks", 2, 5, 3, 30, 1, 2, 0, false, 4, 30);
    Add("fbreader", 4, 11, 3, 40, 1, 2, 0, false, 4, 30);
    Add("vlc", 2, 2, 4, 35, 1, 2, 0, false, 4, 28);
    Add("firefoxfocus", 2, 6, 3, 30, 1, 2, 0, false, 4, 32);
    Add("telegram", 20, 114, 3, 90, 1, 2, 0, false, 4, 32);
    Add("zoom", 5, 10, 3, 110, 1, 2, 0, false, 4, 32);
    Add("chrome", 8, 26, 3, 45, 1, 2, 0, false, 4, 32);
    // Distributed systems: many threads, events, nested creation.
    Add("hbase", 12, 4, 5, 220, /*Racy=*/3, /*Locked=*/4, /*Nested=*/2,
        false, 4, 30);
    Add("hdfs", 9, 3, 5, 180, /*Racy=*/3, /*Locked=*/4, /*Nested=*/2,
        false, 4, 12);
    Add("yarn", 10, 4, 5, 260, /*Racy=*/3, /*Locked=*/4, /*Nested=*/2,
        false, 4, 10);
    Add("zookeeper", 30, 10, 4, 120, /*Racy=*/3, /*Locked=*/4, /*Nested=*/2,
        false, 4, 10);
    // C/C++ applications (Table 6).
    Add("memcached", 8, 4, 3, 60, /*Racy=*/2, /*Locked=*/3, 0, false, 3, 8);
    Add("redis", 10, 5, 4, 140, /*Racy=*/2, /*Locked=*/3, /*Nested=*/2,
        false, 4, 24);
    Add("sqlite3", 3, 0, 5, 300, /*Racy=*/1, /*Locked=*/4, 0, false, 4, 44);
    return Ps;
  }();
  return Profiles;
}

const WorkloadProfile *o2::findProfile(const std::string &Name) {
  for (const WorkloadProfile &P : benchmarkProfiles())
    if (P.Name == Name)
      return &P;
  return nullptr;
}

const WorkloadProfile &o2::profileNamed(const std::string &Name) {
  const WorkloadProfile *P = findProfile(Name);
  if (!P) {
    std::fprintf(stderr, "o2: unknown benchmark profile '%s'\n",
                 Name.c_str());
    std::abort();
  }
  return *P;
}

std::vector<std::string> o2::dacapoProfiles() {
  return {"avrora",   "batik",    "eclipse",  "h2",        "jython",
          "luindex",  "lusearch", "pmd",      "sunflow",   "tomcat",
          "tradebeans", "tradesoap", "xalan"};
}

std::vector<std::string> o2::androidProfiles() {
  return {"connectbot", "sipdroid",     "k9mail",  "tasks", "fbreader",
          "vlc",        "firefoxfocus", "telegram", "zoom",  "chrome"};
}

std::vector<std::string> o2::distributedProfiles() {
  return {"hbase", "hdfs", "yarn", "zookeeper"};
}

std::vector<std::string> o2::cppProfiles() {
  return {"memcached", "redis", "sqlite3"};
}

std::vector<std::pair<std::string, PTAOptions>> o2::pointerAnalysisConfigs() {
  auto Mk = [](ContextKind Kind, unsigned K) {
    PTAOptions Opts;
    Opts.Kind = Kind;
    Opts.K = K;
    Opts.NodeBudget = 64'000;
    return Opts;
  };
  return {
      {"0-ctx", Mk(ContextKind::Insensitive, 1)},
      {"1-origin", Mk(ContextKind::Origin, 1)},
      {"1-cfa", Mk(ContextKind::KCallsite, 1)},
      {"2-cfa", Mk(ContextKind::KCallsite, 2)},
      {"1-obj", Mk(ContextKind::KObject, 1)},
      {"2-obj", Mk(ContextKind::KObject, 2)},
  };
}

WorkloadProfile o2::ablationProfile() {
  WorkloadProfile P;
  P.Name = "ablation";
  P.NumThreads = 16;
  P.NumEventHandlers = 8;
  P.CallDepth = 4;
  P.RacyObjects = 3;
  P.LockedObjects = 6;
  P.ReadOnlyObjects = 4;
  P.NumLocks = 4;
  P.ProtectedWritesPerOrigin = 10;
  P.UnprotectedWritesPerOrigin = 2;
  P.ReadsPerOrigin = 8;
  P.Seed = 99;
  return P;
}
