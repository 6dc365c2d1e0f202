//===- perfbench/src/Load.cpp - Pipeline text to a gated program ----------===//

#include "Load.h"
#include "Bench.h"

#include "analysis/Analyzer.h"
#include "analysis/IntervalAnalysis.h"
#include "analysis/ProgramLint.h"
#include "frontend/LazyScript.h"
#include "frontend/Parser.h"
#include "frontend/Serializer.h"
#include "fusion/MinCutPartitioner.h"
#include "ir/VmOptimizer.h"
#include "jit/JitProgram.h"
#include "sim/Executor.h"
#include "sim/LazyRuntime.h"

#include <algorithm>

using namespace kf;

namespace perfbench {

std::string pipelineText(const Program &P) { return serializeProgram(P); }

Loaded loadPipeline(const std::string &Name, const std::string &Text,
                    bool Lazy, const std::string &OutputName) {
  Loaded Out;
  DiagnosticEngine Lint;
  if (Lazy) {
    // Parsing and lowering together are the .lz front end.
    LazyScriptResult Script;
    LazyLowering Lowered;
    bool Parsed = layer("frontend.parse", [&] {
      Script = parseLazyScript(Text, Name);
      if (!Script.ok())
        return false;
      Lowered = Script.Pipeline->lower(Script.outputs());
      return true;
    });
    if (!Parsed) {
      Out.Error = "lazy script rejected: " +
                  (Script.Errors.empty() ? std::string("no pipeline")
                                         : Script.Errors.front().Message);
      return Out;
    }
    if (!Lowered.recordOk()) {
      Out.Error = "lowering rejected: " + Lowered.Issues.front().Message;
      return Out;
    }
    layer("analysis.lint", [&] { lintProgram(*Lowered.Full, Lint); });
    Out.Prog = std::move(Lowered.Live);
    Out.Inputs = Lowered.LiveInputs;
    Out.Output = Lowered.LiveOutputs.at(0);
  } else {
    ParseResult Parsed =
        layer("frontend.parse", [&] { return parsePipelineText(Text); });
    if (!Parsed.success()) {
      Out.Error = "kfp rejected: " +
                  (Parsed.Errors.empty() ? std::string("no program")
                                         : Parsed.Errors.front());
      return Out;
    }
    layer("analysis.lint", [&] { lintProgram(*Parsed.Prog, Lint); });
    Out.Prog = std::move(Parsed.Prog);
    const Program &P = *Out.Prog;
    for (ImageId Id : P.externalInputs())
      Out.Inputs.push_back({P.image(Id).Name, Id});
    bool Found = OutputName.empty() && !P.terminalOutputs().empty();
    if (Found)
      Out.Output = P.terminalOutputs().front();
    for (ImageId Id = 0; Id != P.numImages() && !Found; ++Id)
      if (P.image(Id).Name == OutputName) {
        Out.Output = Id;
        Found = true;
      }
    if (!Found) {
      Out.Error = "kfp program lacks its output image";
      Out.Prog.reset();
      return Out;
    }
  }
  if (Lint.errorCount() > 0) {
    Out.Error = "lint: " + Lint.renderText();
    Out.Prog.reset();
    return Out;
  }

  const Program &P = *Out.Prog;
  const LazyGateOptions Gate;
  Partition Blocks = layer("fusion.partition", [&] {
    return runMinCutFusion(P, Gate.HW, Gate.Legality).Blocks;
  });
  Out.Fused = layer("transform.fuse", [&] {
    return fuseProgram(P, Blocks, FusionStyle::Optimized);
  });
  layer("ir.bytecode", [&] {
    for (const FusedKernel &FK : Out.Fused.Kernels)
      Out.Bytecode.push_back(compileFusedKernel(Out.Fused, FK));
  });
  DiagnosticEngine DE;
  layer("analysis.gate", [&] {
    checkFusedLegality(Out.Fused, Gate.HW, Gate.Legality, DE);
    std::vector<ImageInfo> Shapes;
    for (ImageId Id = 0; Id != P.numImages(); ++Id)
      Shapes.push_back(P.image(Id));
    for (size_t K = 0; K != Out.Fused.Kernels.size(); ++K) {
      const FusedKernel &FK = Out.Fused.Kernels[K];
      for (KernelId Dest : FK.Destinations) {
        uint16_t Root = 0;
        for (size_t I = 0; I != FK.Stages.size(); ++I)
          if (FK.Stages[I].Kernel == Dest)
            Root = static_cast<uint16_t>(I);
        int Halo = fusedLaunchHalo(Out.Bytecode[K], Root,
                                   P.image(P.kernel(Dest).Output));
        analyzeLaunch(P, FK, FK.Name, Out.Bytecode[K], Root, Halo, Shapes,
                      DE);
      }
    }
  });
  if (DE.errorCount() > 0)
    Out.Error = "gate: " + DE.renderText();
  return Out;
}

void replayOptAndJit(const Loaded &L, const CompiledPlan &Plan) {
  std::vector<StagedVmProgram> Optimized;
  std::vector<uint16_t> Roots;
  layer("ir.opt", [&] {
    std::vector<InputRange> Ranges(L.Prog->numImages());
    for (size_t K = 0; K != L.Fused.Kernels.size(); ++K) {
      const FusedKernel &FK = L.Fused.Kernels[K];
      for (KernelId Dest : FK.Destinations) {
        uint16_t Root = 0;
        for (size_t I = 0; I != FK.Stages.size(); ++I)
          if (FK.Stages[I].Kernel == Dest)
            Root = static_cast<uint16_t>(I);
        IntervalAnalysisResult Facts =
            analyzeStagedIntervals(L.Bytecode[K], Root, Ranges);
        StagedVmProgram SP = L.Bytecode[K];
        optimizeStagedProgram(SP, Root, Facts.Stages);
        InputRange &Written = Ranges[L.Prog->kernel(Dest).Output];
        Written.Lo = Facts.Result.Lo;
        Written.Hi = Facts.Result.Hi;
        Written.MayNaN = Facts.Result.MayNaN;
        Optimized.push_back(std::move(SP));
        Roots.push_back(Root);
      }
    }
  });
  layer("jit.compile", [&] {
    for (size_t I = 0; I != Optimized.size(); ++I)
      compileJitProgram(Optimized[I], Roots[I], Plan.Shapes);
  });
}

double bytesMoved(const CompiledPlan &Plan) {
  double Bytes = 0.0;
  for (const CompiledLaunch &L : Plan.Launches) {
    std::vector<ImageId> Read;
    for (const VmStage &S : L.Code.Stages)
      for (const VmInst &I : S.Code.Insts)
        if (I.Op == VmOp::Load) {
          ImageId Id = S.Inputs.at(I.InputIdx);
          if (std::find(Read.begin(), Read.end(), Id) == Read.end())
            Read.push_back(Id);
        }
    Read.push_back(L.Output);
    for (ImageId Id : Read) {
      const ImageInfo &Info = Plan.Shapes[Id];
      Bytes += 4.0 * Info.Width * Info.Height * Info.Channels;
    }
  }
  return Bytes;
}

void PlanCounts::add(const FusedProgram &Fused, const CompiledPlan &Plan) {
  Kernels += Fused.Kernels.size();
  Launches += Plan.Launches.size();
  for (const CompiledLaunch &L : Plan.Launches) {
    for (const VmStage &S : L.Code.Stages)
      Insts += S.Code.Insts.size();
    OptRemoved += L.OptStats.removedInsts();
    JitRefused += L.Jit ? 0 : 1;
  }
  BytesMoved += bytesMoved(Plan);
}

} // namespace perfbench
