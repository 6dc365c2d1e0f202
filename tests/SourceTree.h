//===- tests/SourceTree.h - Fixture paths from the source checkout -*- C++ -*-===//
//
// Test fixtures (tests/golden, tests/fixtures, examples/) are found from
// the source directory compiled into the test binary (KF_SOURCE_DIR, set
// by tests/CMakeLists.txt), never from the working directory, so the
// suite behaves the same from any build tree. A missing fixture fails
// the test that reads it.
//
//===----------------------------------------------------------------------===//

#ifndef KF_TESTS_SOURCETREE_H
#define KF_TESTS_SOURCETREE_H

#include <string>

namespace kf::test {

/// Absolute path of \p Relative (e.g. "examples/pipelines/harris.kfp")
/// inside the source checkout.
inline std::string sourcePath(const std::string &Relative) {
  return std::string(KF_SOURCE_DIR) + "/" + Relative;
}

} // namespace kf::test

#endif // KF_TESTS_SOURCETREE_H
