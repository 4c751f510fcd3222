//===- PaperTablesTest.cpp - the paper's tables, computed and pinned ------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// One test per table of the paper's evaluation. Each computes the table's
// counters through the library, on the profiles and configurations the
// bench binaries use (o2/Workload/Generator.h), and checks three things:
//   - the pinned counts: exact fixpoint sizes and shared-access counts
//     that a change to a representation must not move;
//   - the table's shape, where no property test already checks it
//     (PrecisionPropertyTest covers origin races within 0-ctx races, the
//     k-CFA ladder and OSA <= escape on the DaCapo profiles, and
//     BugModelTest found == expected);
//   - EXPERIMENTS.md: every count and percentage cell of its Table 6, 8,
//     9, 10 and Section 4.1 rows equals the computed value. A row that
//     differs fails with the corrected row. Times stay as written: they
//     come from the bench binaries.
//
//===----------------------------------------------------------------------===//

#include "o2/Analysis/AnalysisManager.h"
#include "o2/OSA/EscapeAnalysis.h"
#include "o2/Race/RacerDLike.h"
#include "o2/Workload/BugModels.h"
#include "o2/Workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <set>

using namespace o2;

namespace {

using Cells = std::vector<std::string>;

PTAOptions configNamed(const std::string &Name) {
  for (const auto &[CfgName, Opts] : pointerAnalysisConfigs())
    if (CfgName == Name)
      return Opts;
  ADD_FAILURE() << "no pointer-analysis configuration '" << Name << "'";
  return PTAOptions();
}

uint64_t stat(const PTAResult &PTA, const char *Name) {
  return PTA.stats().get(Name);
}

/// A count as the tables print it; a pointer analysis cut short by the
/// node budget (the paper's ">4h") is marked.
std::string count(uint64_t N, bool BudgetHit = false) {
  return std::to_string(N) + (BudgetHit ? " *budget*" : "");
}

/// The reduction of \p Races against \p Baseline, in whole percent, with
/// the tables' minus sign.
std::string reduction(uint64_t Races, uint64_t Baseline) {
  long Pct = std::lround(100.0 * (1.0 - double(Races) / double(Baseline)));
  return (Pct >= 0 ? "−" : "+") + std::to_string(std::labs(Pct)) + "%";
}

Cells splitRow(const std::string &Line) {
  Cells Out;
  size_t Start = Line.find('|') + 1;
  for (size_t Bar; (Bar = Line.find('|', Start)) != std::string::npos;
       Start = Bar + 1) {
    std::string Cell = Line.substr(Start, Bar - Start);
    size_t B = Cell.find_first_not_of(' '), E = Cell.find_last_not_of(' ');
    Out.push_back(B == std::string::npos ? "" : Cell.substr(B, E - B + 1));
  }
  return Out;
}

std::string joinRow(const Cells &C) {
  std::string Out = "|";
  for (const std::string &Cell : C)
    Out += Cell.empty() ? " |" : " " + Cell + " |";
  return Out;
}

/// The data rows of the first table after the EXPERIMENTS.md heading that
/// starts with \p Heading.
std::vector<std::string> tableRows(const std::string &Heading) {
  std::ifstream In(O2_EXPERIMENTS_MD);
  EXPECT_TRUE(In) << "cannot read " << O2_EXPERIMENTS_MD;
  std::vector<std::string> Rows;
  std::string Line;
  while (std::getline(In, Line) && Line.rfind(Heading, 0) != 0)
    ;
  while (std::getline(In, Line) && Line.rfind("## ", 0) != 0) {
    if (Line.rfind("|", 0) == 0)
      Rows.push_back(Line);
    else if (!Rows.empty())
      break;
  }
  // Drop the header and the |---| line.
  Rows.erase(Rows.begin(), Rows.begin() + std::min<size_t>(2, Rows.size()));
  return Rows;
}

/// Checks each data row of the table under \p Heading against the row
/// \p Correct computes from its cells.
void checkTable(const std::string &Heading,
                const std::function<Cells(const Cells &)> &Correct) {
  std::vector<std::string> Rows = tableRows(Heading);
  EXPECT_FALSE(Rows.empty()) << "EXPERIMENTS.md has no table under '"
                             << Heading << "'";
  for (const std::string &Line : Rows) {
    std::string Fixed = joinRow(Correct(splitRow(Line)));
    EXPECT_EQ(Line, Fixed) << "EXPERIMENTS.md '" << Heading
                           << "': the computed row is\n"
                           << Fixed;
  }
}

std::set<uint64_t> raceLocs(const RaceReport &R) {
  std::set<uint64_t> Locs;
  for (const Race &Rc : R.races())
    Locs.insert(Rc.Loc.key());
  return Locs;
}

TEST(PaperTables, Table5) {
  // Pointer-analysis fixpoints: nodes, origins and budget stops must not
  // move whatever the points-to sets' or the per-instance tables'
  // representation, under every context kind. Telegram's 2-CFA and 2-obj
  // runs stop at the budget, the paper's ">4h".
  struct Pin {
    const char *Profile, *Config;
    uint64_t Nodes, Origins;
    bool BudgetHit;
  };
  const Pin Pins[] = {
      {"avrora", "0-ctx", 395, 0, false},
      {"avrora", "1-origin", 539, 5, false},
      {"avrora", "1-cfa", 708, 0, false},
      {"avrora", "2-cfa", 2544, 0, false},
      {"avrora", "1-obj", 713, 0, false},
      {"avrora", "2-obj", 2543, 0, false},
      {"telegram", "0-ctx", 2887, 0, false},
      {"telegram", "1-origin", 18049, 135, false},
      {"telegram", "1-cfa", 10338, 0, false},
      {"telegram", "2-cfa", 64023, 0, true},
      {"telegram", "1-obj", 10603, 0, false},
      {"telegram", "2-obj", 64022, 0, true},
  };
  std::map<std::string, std::unique_ptr<Module>> Modules;
  for (const Pin &P : Pins) {
    SCOPED_TRACE(std::string(P.Profile) + "/" + P.Config);
    auto &M = Modules[P.Profile];
    if (!M)
      M = generateWorkload(profileNamed(P.Profile));
    auto PTA = runPointerAnalysis(*M, configNamed(P.Config));
    EXPECT_EQ(stat(*PTA, "pta.pointer-nodes"), P.Nodes);
    EXPECT_EQ(stat(*PTA, "pta.origins"), P.Origins);
    EXPECT_EQ(PTA->hitBudget(), P.BudgetHit);
  }

  // The shape: OPA needs fewer nodes than 2-CFA on the thread-dominated
  // DaCapo subjects.
  for (const std::string &Name : dacapoProfiles()) {
    SCOPED_TRACE(Name);
    auto M = generateWorkload(profileNamed(Name));
    auto OPA = runPointerAnalysis(*M, configNamed("1-origin"));
    auto CFA2 = runPointerAnalysis(*M, configNamed("2-cfa"));
    EXPECT_FALSE(OPA->hitBudget());
    EXPECT_LT(stat(*OPA, "pta.pointer-nodes"),
              stat(*CFA2, "pta.pointer-nodes"));
  }
}

TEST(PaperTables, Table6) {
  checkTable("## Table 6 ", [](const Cells &C) {
    auto M = generateWorkload(profileNamed(C[0]));
    bool O2 = C[1].rfind("O2", 0) == 0;
    auto PTA = runPointerAnalysis(*M, configNamed(O2 ? "1-origin" : C[1]));
    std::string Label =
        O2 ? "O2 (#O=" + std::to_string(stat(*PTA, "pta.origins")) + ")"
           : C[1];
    return Cells{C[0],
                 Label,
                 C[2],
                 count(stat(*PTA, "pta.pointer-nodes"), PTA->hitBudget()),
                 count(stat(*PTA, "pta.objects")),
                 count(stat(*PTA, "pta.copy-edges"))};
  });
}

TEST(PaperTables, Table7) {
  // OSA against the escape baseline, both on OPA's access table.
  struct Pin {
    const char *Profile;
    unsigned OSAAccesses, OSAObjects, EscapeAccesses;
  };
  for (const Pin &P : {Pin{"avrora", 116, 5, 131}, Pin{"h2", 92, 6, 109}}) {
    SCOPED_TRACE(P.Profile);
    auto M = generateWorkload(profileNamed(P.Profile));
    auto PTA = runPointerAnalysis(*M, PTAOptions());
    SharingResult OSA = runSharingAnalysis(*PTA);
    EXPECT_EQ(OSA.numSharedAccessStmts(), P.OSAAccesses);
    EXPECT_EQ(OSA.numSharedObjects(), P.OSAObjects);
    EXPECT_EQ(runEscapeAnalysis(*PTA).numSharedAccessStmts(),
              P.EscapeAccesses);
  }
}

TEST(PaperTables, Table8) {
  checkTable("## Table 8 ", [](const Cells &C) {
    auto M = generateWorkload(profileNamed(C[0]));
    std::map<std::string, std::pair<uint64_t, bool>> Races;
    for (const auto &[Name, Opts] : pointerAnalysisConfigs()) {
      O2Config Config;
      Config.PTA = Opts;
      AnalysisManager AM(*M, Config);
      Races[Name] = {AM.getRaces().numRaces(), AM.getPTA().hitBudget()};
    }
    uint64_t Base = Races["0-ctx"].first;
    auto Cut = [&](const char *Name) {
      return reduction(Races[Name].first, Base) +
             (Races[Name].second ? " *budget*" : "");
    };
    return Cells{C[0],
                 count(Base),
                 count(Races["1-origin"].first) + " (" + Cut("1-origin") + ")",
                 Cut("1-cfa"),
                 Cut("2-cfa"),
                 Cut("1-obj"),
                 Cut("2-obj"),
                 count(runRacerDLike(*M).numPotentialRaces())};
  });
}

TEST(PaperTables, Table9) {
  checkTable("## Table 9 ", [](const Cells &C) {
    auto M = generateWorkload(profileNamed(C[0]));
    std::map<std::string, RaceReport> Reports;
    std::map<std::string, bool> BudgetHit;
    for (const char *Name : {"1-origin", "0-ctx", "1-cfa", "2-cfa"}) {
      O2Config Config;
      Config.PTA = configNamed(Name);
      AnalysisManager AM(*M, Config);
      Reports[Name] = AM.getRaces();
      BudgetHit[Name] = AM.getPTA().hitBudget();
    }
    auto SObj = [&](const char *Name) {
      return Reports[Name].stats().get("race.shared-objects");
    };
    // The shape: O2 has the smallest thread-shared-object workload.
    for (const char *Name : {"0-ctx", "1-cfa", "2-cfa"})
      EXPECT_LT(SObj("1-origin"), SObj(Name)) << C[0] << " vs " << Name;
    return Cells{C[0],
                 count(Reports["1-origin"].numRaces()),
                 count(runRacerDLike(*M).numPotentialRaces()),
                 count(SObj("1-origin")),
                 count(SObj("0-ctx"), BudgetHit["0-ctx"]),
                 count(SObj("1-cfa"), BudgetHit["1-cfa"]),
                 count(SObj("2-cfa"), BudgetHit["2-cfa"])};
  });
}

TEST(PaperTables, Table10) {
  checkTable("## Table 10 ", [](const Cells &C) {
    const BugModel *Model = findBugModel(C[0]);
    if (!Model) {
      ADD_FAILURE() << "no bug model '" << C[0] << "'";
      return C;
    }
    auto M = buildBugModel(*Model);
    return Cells{C[0],
                 count(Model->ExpectedRaces),
                 count(AnalysisManager(*M).getRaces().numRaces()),
                 count(runRacerDLike(*M).numPotentialRaces()),
                 Model->ThreadEventInteraction ? "✓" : ""};
  });
}

TEST(PaperTables, Section41Ablation) {
  auto M = generateWorkload(ablationProfile());
  auto PTA = runPointerAnalysis(*M, PTAOptions());
  SHBGraph SHB = buildSHBGraph(*PTA);
  SharingResult Sharing = runSharingAnalysis(*PTA);
  auto Detect = [&](bool HB, bool Lockset, bool Merge) {
    RaceDetectorOptions Opts;
    Opts.HB = HB ? RaceHBKind::Index : RaceHBKind::Naive;
    Opts.CacheLocksetChecks = Lockset;
    Opts.LockRegionMerging = Merge;
    return detectRaces(*PTA, SHB, Sharing, Opts);
  };
  // The rows of bench_ablation_opts; the first is what the tools run.
  std::map<std::string, RaceReport> Rows;
  Rows["all optimizations"] = Detect(true, true, true);
  Rows["no integer-ID HB"] = Detect(false, true, true);
  Rows["no lockset caching"] = Detect(true, false, true);
  Rows["no region merging"] = Detect(true, true, false);
  Rows["none (D4-style)"] = Detect(false, false, false);
  auto Pairs = [&](const std::string &Row) {
    return Rows.at(Row).stats().get("race.pairs-checked");
  };

  for (const char *Row :
       {"all optimizations", "no integer-ID HB", "no lockset caching"}) {
    EXPECT_EQ(Pairs(Row), 6756u) << Row;
    EXPECT_EQ(Rows.at(Row).numRaces(), 646u) << Row;
  }
  for (const char *Row : {"no region merging", "none (D4-style)"})
    EXPECT_EQ(Rows.at(Row).numRaces(), 1108u) << Row;
  // The shape: merging lock regions cuts the pairs checked, not the racy
  // locations.
  EXPECT_EQ(raceLocs(Rows.at("all optimizations")),
            raceLocs(Rows.at("no region merging")));

  checkTable("## §4.1 ", [&](const Cells &C) {
    auto It = Rows.find(C[0]);
    if (It == Rows.end()) {
      ADD_FAILURE() << "no ablation row '" << C[0] << "'";
      return C;
    }
    return Cells{C[0], C[1], count(Pairs(C[0])),
                 count(It->second.numRaces())};
  });
}

TEST(PaperTables, Section42Android) {
  // The implicit looper lock: no handler/handler race on any app, and the
  // thread/handler races stay as they are without it.
  for (const std::string &Name : androidProfiles()) {
    SCOPED_TRACE(Name);
    auto M = generateWorkload(profileNamed(Name));
    auto PTA = runPointerAnalysis(*M, PTAOptions());
    SharingResult Sharing = runSharingAnalysis(*PTA);
    unsigned HandlerPairs[2] = {0, 0}, MixedPairs[2] = {0, 0};
    for (bool Serialize : {false, true}) {
      SHBOptions Opts;
      Opts.SerializeEventHandlers = Serialize;
      SHBGraph SHB = buildSHBGraph(*PTA, Opts);
      RaceReport R = detectRaces(*PTA, SHB, Sharing);
      for (const Race &Rc : R.races()) {
        bool AEvent = SHB.thread(Rc.ThreadA).Kind == OriginKind::Event;
        bool BEvent = SHB.thread(Rc.ThreadB).Kind == OriginKind::Event;
        HandlerPairs[Serialize] += AEvent && BEvent;
        MixedPairs[Serialize] += AEvent != BEvent;
      }
    }
    EXPECT_GT(HandlerPairs[false], 0u);
    EXPECT_EQ(HandlerPairs[true], 0u);
    EXPECT_EQ(MixedPairs[true], MixedPairs[false]);
  }
}

} // namespace
