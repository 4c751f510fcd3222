//===- o2cli.cpp - command-line race detector ---------------------------------===//
//
// Part of the O2 project, an implementation of the PLDI 2021 paper
// "When Threads Meet Events: Efficient and Precise Static Race Detection
// with Origins".
//
//===----------------------------------------------------------------------===//
//
// Analyzes a textual OIR program:
//
//   o2cli [options] <program.oir>
//   o2cli --bug-model <name>        analyze a built-in bug model
//   o2cli --list-bug-models
//   o2cli --batch [batch options]   run the parallel batch driver
//                                   (see o2batch --help, docs/DRIVER.md)
//
// Exit codes: 0 clean, 1 races found, 2 parse/verify/internal error.
// Only the race analysis affects the exit code; aux findings (deadlocks,
// over-sync regions, RacerD warnings) are informational.
//
// Options:
//   --ctx=<0-ctx|cfa|obj|origin>    context abstraction (default origin)
//   --k=<n>                         context depth (default 1)
//   --solver=<wave|worklist>        PTA constraint engine (default wave)
//   --analyses=<list>               comma-separated analyses to run
//                                   (race, deadlock, oversync, racerd,
//                                   escape, osa, or "all"; default
//                                   osa,race). Shared passes (PTA, SHB)
//                                   are scheduled once and reused.
//   --stats                         print per-phase timings and analysis
//                                   statistics as one JSON object line
//   --no-serialize-events           disable the Section 4.2 treatment
//   --race-hb=<index|naive>         happens-before queries (default
//                                   index; naive runs the pairwise
//                                   BFS oracle)
//   --naive                         disable all detector optimizations
//                                   (naive HB, no caches, no merging)
//   --racerd                        shorthand: add racerd to --analyses
//   --deadlocks                     shorthand: add deadlock to --analyses
//   --oversync                      shorthand: add oversync to --analyses
//   --json                          print the race report as JSON
//   --dot-callgraph                 dump the call graph in Graphviz format
//   --dot-shb                       dump the SHB thread graph in Graphviz
//   --print-module                  echo the parsed module
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"
#include "o2/O2.h"
#include "o2/PTA/CallGraph.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/BugModels.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace o2;

namespace {

struct CliOptions {
  std::string InputFile;
  std::string BugModelName;
  bool ListBugModels = false;
  bool PrintModule = false;
  bool Naive = false;
  bool JSON = false;
  bool Stats = false;
  bool DotCallGraph = false;
  bool DotSHB = false;
  /// The --analyses= request; defaultSet() unless the flag was given.
  AnalysisSet Analyses = AnalysisSet::defaultSet();
  /// Passes added by the --racerd/--deadlocks/--oversync shorthands;
  /// merged into Analyses after parsing so the flags compose with
  /// --analyses= regardless of argument order.
  AnalysisSet Extra;
  O2Config Config;
};

bool parseArgs(int Argc, char **Argv, CliOptions &Cli) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&Arg](const char *Prefix) -> std::string {
      return Arg.substr(std::string(Prefix).size());
    };
    if (Arg == "--list-bug-models") {
      Cli.ListBugModels = true;
    } else if (Arg == "--bug-model" && I + 1 < Argc) {
      Cli.BugModelName = Argv[++I];
    } else if (Arg.rfind("--ctx=", 0) == 0) {
      std::string Kind = Value("--ctx=");
      if (Kind == "0-ctx")
        Cli.Config.PTA.Kind = ContextKind::Insensitive;
      else if (Kind == "cfa")
        Cli.Config.PTA.Kind = ContextKind::KCallsite;
      else if (Kind == "obj")
        Cli.Config.PTA.Kind = ContextKind::KObject;
      else if (Kind == "origin")
        Cli.Config.PTA.Kind = ContextKind::Origin;
      else {
        errs() << "error: unknown context kind '" << Kind << "'\n";
        return false;
      }
    } else if (Arg.rfind("--k=", 0) == 0) {
      uint64_t K = 0;
      std::string Err;
      if (!parseUnsignedFlag(Arg, K, Err, ~0u)) {
        errs() << "error: " << Err << '\n';
        return false;
      }
      Cli.Config.PTA.K = static_cast<unsigned>(K);
    } else if (Arg.rfind("--solver=", 0) == 0) {
      std::string Solver = Value("--solver=");
      if (Solver == "wave")
        Cli.Config.PTA.Solver = SolverKind::Wave;
      else if (Solver == "worklist")
        Cli.Config.PTA.Solver = SolverKind::Worklist;
      else {
        errs() << "error: unknown solver '" << Solver << "'\n";
        return false;
      }
    } else if (Arg.rfind("--analyses=", 0) == 0) {
      std::string Err;
      AnalysisSet Parsed;
      if (!parseAnalysisSet(Value("--analyses="), Parsed, Err)) {
        errs() << "error: " << Err << '\n';
        return false;
      }
      Cli.Analyses = Parsed;
    } else if (Arg == "--stats") {
      Cli.Stats = true;
    } else if (Arg == "--no-serialize-events") {
      Cli.Config.Detector.SHB.SerializeEventHandlers = false;
    } else if (Arg.rfind("--race-hb=", 0) == 0) {
      std::string HB = Value("--race-hb=");
      if (HB == "naive")
        Cli.Config.Detector.HB = RaceHBKind::Naive;
      else if (HB == "index")
        Cli.Config.Detector.HB = RaceHBKind::Index;
      else {
        errs() << "error: unknown race HB mode '" << HB << "'\n";
        return false;
      }
    } else if (Arg == "--naive") {
      Cli.Naive = true;
    } else if (Arg == "--racerd") {
      Cli.Extra.insert(O2Phase::RacerD);
    } else if (Arg == "--deadlocks") {
      Cli.Extra.insert(O2Phase::Deadlock);
    } else if (Arg == "--oversync") {
      Cli.Extra.insert(O2Phase::OverSync);
    } else if (Arg == "--json") {
      Cli.JSON = true;
    } else if (Arg == "--dot-callgraph") {
      Cli.DotCallGraph = true;
    } else if (Arg == "--dot-shb") {
      Cli.DotSHB = true;
    } else if (Arg == "--print-module") {
      Cli.PrintModule = true;
    } else if (!Arg.empty() && Arg[0] != '-') {
      Cli.InputFile = Arg;
    } else {
      errs() << "error: unknown option '" << Arg << "'\n";
      return false;
    }
  }
  return true;
}

std::string readFile(const std::string &Path, bool &Ok) {
  Ok = false;
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return "";
  std::string Content;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), File)) > 0)
    Content.append(Buf, N);
  std::fclose(File);
  Ok = true;
  return Content;
}

/// The classic human-readable pipeline summary, fed from the manager's
/// shared results. Lines for passes that were not requested print their
/// zero shape (matching the pre-manager facade, which defaulted skipped
/// results).
void printSummary(AnalysisManager &AM, OutputStream &OS) {
  const PTAResult &PTA = AM.getPTA();
  OS << "O2 analysis of '" << PTA.module().getName() << "' ("
     << PTA.options().name() << ")\n";
  OS << "  pointer analysis: " << PTA.stats().get("pta.pointer-nodes")
     << " nodes, " << PTA.stats().get("pta.objects") << " objects, "
     << PTA.stats().get("pta.copy-edges") << " edges, "
     << PTA.stats().get("pta.origins") << " origins ("
     << AM.seconds(O2Phase::PTA) << "s)\n";
  if (AM.ran(O2Phase::OSA)) {
    const SharingResult &Sharing = AM.getSharing();
    OS << "  sharing: " << Sharing.sharedLocations().size()
       << " shared locations over " << Sharing.numSharedObjects()
       << " objects, " << Sharing.numSharedAccessStmts() << "/"
       << Sharing.numAccessStmts() << " shared accesses ("
       << AM.seconds(O2Phase::OSA) << "s)\n";
  } else {
    OS << "  sharing: 0 shared locations over 0 objects, 0/0 shared "
          "accesses (0s)\n";
  }
  if (AM.ran(O2Phase::SHB)) {
    const SHBGraph &SHB = AM.getSHB();
    OS << "  SHB: " << SHB.numThreads() << " threads, "
       << SHB.numAccessEvents() << " access events ("
       << AM.seconds(O2Phase::SHB) << "s)\n";
  } else {
    OS << "  SHB: 0 threads, 0 access events (0s)\n";
  }
  if (AM.ran(O2Phase::Detect))
    OS << "  races: " << AM.getRaces().numRaces() << " ("
       << AM.seconds(O2Phase::Detect) + AM.seconds(O2Phase::HBIndex)
       << "s)\n";
}

} // namespace

int main(int Argc, char **Argv) {
  // `o2cli --batch ...` hands everything after --batch to the batch
  // driver (the same engine as the standalone o2batch tool).
  if (Argc > 1 && std::string(Argv[1]) == "--batch")
    return runBatchCommand(std::vector<std::string>(Argv + 2, Argv + Argc));

  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli))
    return ExitError;

  if (Cli.ListBugModels) {
    for (const BugModel &Model : bugModels())
      outs() << Model.Name << "  (" << Model.Subject << ", "
             << Model.ExpectedRaces << " races): " << Model.Description
             << '\n';
    return ExitClean;
  }

  std::unique_ptr<Module> M;
  if (!Cli.BugModelName.empty()) {
    const BugModel *Model = findBugModel(Cli.BugModelName);
    if (!Model) {
      errs() << "error: no bug model named '" << Cli.BugModelName << "'\n";
      return ExitError;
    }
    M = buildBugModel(*Model);
  } else if (!Cli.InputFile.empty()) {
    bool Ok = false;
    std::string Source = readFile(Cli.InputFile, Ok);
    if (!Ok) {
      errs() << "error: cannot read '" << Cli.InputFile << "'\n";
      return ExitError;
    }
    std::string Err;
    M = parseModule(Source, Err, Cli.InputFile);
    if (!M) {
      errs() << Cli.InputFile << ":" << Err << '\n';
      return ExitError;
    }
  } else {
    errs() << "usage: o2cli [options] <program.oir> | --bug-model <name> | "
              "--list-bug-models | --batch [batch options]\n";
    return ExitError;
  }

  std::vector<std::string> Errors;
  if (!verifyModule(*M, Errors)) {
    for (const std::string &E : Errors)
      errs() << "verifier: " << E << '\n';
    return ExitError;
  }

  if (Cli.PrintModule)
    outs() << printModule(*M) << '\n';

  if (Cli.Naive) {
    Cli.Config.Detector.HB = RaceHBKind::Naive;
    Cli.Config.Detector.CacheLocksetChecks = false;
    Cli.Config.Detector.LockRegionMerging = false;
  }

  AnalysisSet Set = Cli.Analyses;
  Set |= Cli.Extra;

  AnalysisManager AM(*M, Cli.Config);
  AM.run(Set);

  int Exit = AM.ran(O2Phase::Detect) && AM.getRaces().numRaces() != 0
                 ? ExitRacesFound
                 : ExitClean;
  if (Cli.DotCallGraph) {
    CallGraph::build(AM.getPTA()).printDot(outs(), AM.getPTA());
    return ExitClean;
  }
  if (Cli.DotSHB) {
    printSHBDot(AM.getSHB(), outs());
    return ExitClean;
  }
  if (Cli.JSON) {
    if (AM.ran(O2Phase::Detect))
      AM.getRaces().printJSON(outs(), AM.getPTA());
    if (Cli.Stats)
      AM.printStatsJSON(outs());
    return Exit;
  }
  if (Cli.Stats) {
    AM.printStatsJSON(outs());
    return Exit;
  }

  printSummary(AM, outs());
  if (AM.ran(O2Phase::Detect)) {
    outs() << '\n';
    AM.getRaces().print(outs(), AM.getPTA());
  }

  if (Set.contains(O2Phase::Deadlock)) {
    outs() << '\n';
    AM.getDeadlocks().print(outs(), AM.getPTA());
  }
  if (Set.contains(O2Phase::OverSync)) {
    outs() << '\n';
    AM.getOverSync().print(outs());
  }
  if (Set.contains(O2Phase::RacerD)) {
    outs() << '\n';
    AM.getRacerD().print(outs());
  }
  if (Set.contains(O2Phase::Escape)) {
    const EscapeResult &Esc = AM.getEscape();
    outs() << '\n'
           << "escape analysis: " << Esc.numEscapedObjects()
           << " escaped objects, " << Esc.numSharedAccessStmts() << "/"
           << Esc.numAccessStmts() << " shared accesses\n";
  }
  return Exit;
}
