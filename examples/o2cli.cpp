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
// One program is one batch-driver job (runOneJob), named as o2batch names
// it: the file's stem, or the bug model's name. o2cli prints that job's
// record: as text (printJobText), or with --json / --stats as the same
// JSON line o2batch writes for the program (printJobRecord).
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
//   --json                          print the job's JSON record
//   --stats                         the JSON record with its wall-clock
//                                   time.*-ms keys
//   --no-serialize-events           disable the Section 4.2 treatment
//   --dot-callgraph                 dump the call graph in Graphviz format
//   --dot-shb                       dump the SHB thread graph in Graphviz
//   --print-module                  echo the parsed module
//
// The first four are parsed by parsePipelineFlag (o2/Driver/Driver.h),
// which o2batch shares, so both tools accept the same spellings. The last
// three print the module or a graph instead of a report.
//
//===----------------------------------------------------------------------===//

#include "o2/Driver/Driver.h"
#include "o2/IR/Parser.h"
#include "o2/IR/Printer.h"
#include "o2/IR/Verifier.h"
#include "o2/PTA/CallGraph.h"
#include "o2/Support/OutputStream.h"
#include "o2/Workload/BugModels.h"

#include <filesystem>
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
      Cli.Config.SHB.SerializeEventHandlers = false;
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

/// --print-module, --dot-callgraph and --dot-shb: the module itself, or
/// a graph of its analysis, instead of a report. \p M is the bug model
/// when one was named; a program file is read and parsed here.
int dumpModule(const CliOptions &Cli, const JobSpec &Spec,
               std::unique_ptr<Module> M) {
  if (!M) {
    bool Ok = false;
    std::string Source = readFile(Spec.Path, Ok);
    if (!Ok) {
      errs() << "error: cannot read '" << Spec.Path << "'\n";
      return ExitError;
    }
    std::string Err;
    M = parseModule(Source, Err, Spec.Path);
    if (!M) {
      errs() << Spec.Path << ":" << Err << '\n';
      return ExitError;
    }
  }
  std::vector<std::string> Errors;
  if (!verifyModule(*M, Errors)) {
    for (const std::string &E : Errors)
      errs() << "verifier: " << E << '\n';
    return ExitError;
  }

  if (Cli.PrintModule)
    outs() << printModule(*M) << '\n';
  if (!Cli.DotCallGraph && !Cli.DotSHB)
    return ExitClean;
  AnalysisManager AM(*M, Cli.Config);
  AM.run(Cli.Analyses);
  if (Cli.DotCallGraph)
    CallGraph::build(AM.getPTA()).printDot(outs(), AM.getPTA());
  else
    printSHBDot(AM.getSHB(), outs());
  return ExitClean;
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

  JobSpec Spec;
  std::unique_ptr<Module> M;
  if (!Cli.BugModelName.empty()) {
    const BugModel *Model = findBugModel(Cli.BugModelName);
    if (!Model) {
      errs() << "error: no bug model named '" << Cli.BugModelName << "'\n";
      return ExitError;
    }
    M = buildBugModel(*Model);
    Spec.Name = Cli.BugModelName;
    Spec.Source = printModule(*M);
  } else if (!Cli.InputFile.empty()) {
    Spec.Name = std::filesystem::path(Cli.InputFile).stem().string();
    Spec.Path = Cli.InputFile;
  } else {
    errs() << "usage: o2cli [options] <program.oir> | --bug-model <name> | "
              "--list-bug-models | --batch [batch options]\n";
    return ExitError;
  }

  if (Cli.PrintModule || Cli.DotCallGraph || Cli.DotSHB)
    return dumpModule(Cli, Spec, std::move(M));

  BatchOptions Opts;
  Opts.Config = Cli.Config;
  Opts.Analyses = Cli.Analyses;
  JobResult R = runOneJob(Spec, Opts);
  int Exit = exitCodeFor(R.Status);
  if (Cli.JSON || Cli.Stats)
    printJobRecord(R, outs(), Cli.Stats);
  else
    printJobText(R, Exit == ExitError ? errs() : outs());
  return Exit;
}
