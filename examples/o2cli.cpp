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
//   --ctx=<kind>                    context abstraction: 0-ctx (alias
//                                   insensitive), cfa (k-cfa), obj
//                                   (k-obj) or origin (default origin)
//   --k=<n>                         context depth for cfa/obj and
//                                   origin-chain depth (at least 1;
//                                   default 1)
//   --analyses=<list>               comma-separated analyses to run
//                                   (race, deadlock, oversync, racerd,
//                                   escape, osa, or "all"; default
//                                   osa,race). Shared passes (PTA, SHB)
//                                   are scheduled once and reused.
//   --race-hb=<index|naive>         happens-before queries (default
//                                   index; naive runs the pairwise
//                                   BFS oracle)
//   --stats                         print per-phase timings and analysis
//                                   statistics as one JSON object line
//   --no-serialize-events           disable the Section 4.2 treatment
//   --naive                         disable all detector optimizations
//                                   (naive HB, no caches, no merging)
//   --json                          print the race report as JSON
//   --dot-callgraph                 dump the call graph in Graphviz format
//   --dot-shb                       dump the SHB thread graph in Graphviz
//   --print-module                  echo the parsed module
//
// The first four are parsed by parsePipelineFlag (o2/Driver/Driver.h),
// which o2batch shares, so both tools accept the same spellings.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"
#include "o2/PTA/CallGraph.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/BugModels.h"

#include <cstdio>
#include <optional>
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
  O2Config Config;
};

bool parseArgs(int Argc, char **Argv, CliOptions &Cli) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--bug-model" && I + 1 == Argc) {
      errs() << "error: --bug-model needs a name\n";
      return false;
    }
    // A program file and a bug model are both inputs; o2cli takes one.
    bool IsInput = Arg == "--bug-model" || (!Arg.empty() && Arg[0] != '-');
    if (IsInput && (!Cli.InputFile.empty() || !Cli.BugModelName.empty())) {
      errs() << "error: more than one input\n";
      return false;
    }
    if (Arg == "--list-bug-models") {
      Cli.ListBugModels = true;
    } else if (Arg == "--bug-model") {
      Cli.BugModelName = Argv[++I];
    } else if (std::optional<std::string> Err =
                   parsePipelineFlag(Arg, Cli.Config, Cli.Analyses)) {
      if (!Err->empty()) {
        errs() << "error: " << *Err << '\n';
        return false;
      }
    } else if (Arg == "--stats") {
      Cli.Stats = true;
    } else if (Arg == "--no-serialize-events") {
      Cli.Config.Detector.SHB.SerializeEventHandlers = false;
    } else if (Arg == "--naive") {
      Cli.Naive = true;
    } else if (Arg == "--json") {
      Cli.JSON = true;
    } else if (Arg == "--dot-callgraph") {
      Cli.DotCallGraph = true;
    } else if (Arg == "--dot-shb") {
      Cli.DotSHB = true;
    } else if (Arg == "--print-module") {
      Cli.PrintModule = true;
    } else if (IsInput) {
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

  AnalysisManager AM(*M, Cli.Config);
  AM.run(Cli.Analyses);

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

  AM.printSummary(outs());
  if (AM.ran(O2Phase::Detect)) {
    outs() << '\n';
    AM.getRaces().print(outs(), AM.getPTA());
  }

  if (Cli.Analyses.contains(O2Phase::Deadlock)) {
    outs() << '\n';
    AM.getDeadlocks().print(outs(), AM.getPTA());
  }
  if (Cli.Analyses.contains(O2Phase::OverSync)) {
    outs() << '\n';
    AM.getOverSync().print(outs());
  }
  if (Cli.Analyses.contains(O2Phase::RacerD)) {
    outs() << '\n';
    AM.getRacerD().print(outs());
  }
  if (Cli.Analyses.contains(O2Phase::Escape)) {
    const EscapeResult &Esc = AM.getEscape();
    outs() << '\n'
           << "escape analysis: " << Esc.numEscapedObjects()
           << " escaped objects, " << Esc.numSharedAccessStmts() << "/"
           << Esc.numAccessStmts() << " shared accesses\n";
  }
  return Exit;
}
