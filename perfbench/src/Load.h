//===- perfbench/src/Load.h - Pipeline text to a gated program --*- C++ -*-===//
///
/// \file
/// The path every workload takes its pipelines along: `.kfp` or `.lz`
/// text is parsed (and, for `.lz`, lowered), linted, partitioned by the
/// min-cut fuser, fused, compiled to bytecode and passed through the
/// analyzer gate. `stream` and `serve` load the registry pipelines as
/// the text the serializer writes for them; `build` loads its generated
/// pipelines. Each step runs inside a layer span, so the traced mode of
/// every workload times the same build layers.
///
/// Also here: the optimizer/JIT replay and the roofline bytes the traced
/// runs report.
///
//===----------------------------------------------------------------------===//

#ifndef KF_PERFBENCH_LOAD_H
#define KF_PERFBENCH_LOAD_H

#include "ir/Program.h"
#include "ir/ExprVM.h"
#include "sim/Session.h"
#include "transform/Fuser.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One pipeline taken from text through the analyzer gate.
struct Loaded {
  std::unique_ptr<kf::Program> Prog;
  kf::FusedProgram Fused;
  /// External inputs by name: the .lz script's input names, or the .kfp
  /// program's external inputs in image order.
  std::vector<std::pair<std::string, kf::ImageId>> Inputs;
  kf::ImageId Output = 0;
  std::vector<kf::StagedVmProgram> Bytecode; ///< One per fused kernel.
  std::string Error; ///< Why the pipeline was refused ("" = loaded).
};

/// parse -> [lower] -> lint -> partition -> fuse -> bytecode -> gate.
/// \p OutputName names the .kfp output image ("" = the program's first
/// terminal output); a .lz script names its own.
Loaded loadPipeline(const std::string &Name, const std::string &Text,
                    bool Lazy, const std::string &OutputName = "");

/// The registry pipeline \p P as .kfp text (serializeProgram).
std::string pipelineText(const kf::Program &P);

/// The optimizer and JIT steps of compilePlan, replayed on the gate's
/// bytecode so the traced run can time them apart ("ir.opt",
/// "jit.compile"): compilePlan calls both internally and records no span
/// of its own around either.
void replayOptAndJit(const Loaded &L, const kf::CompiledPlan &Plan);

/// Bytes one frame moves through memory by \p Plan: every pool plane a
/// launch loads, read once, plus every plane it writes.
double bytesMoved(const kf::CompiledPlan &Plan);

} // namespace perfbench

#endif // KF_PERFBENCH_LOAD_H
