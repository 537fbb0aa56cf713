// One scratch directory per test process.
//
// ctest -j runs every test case in its own process, many at once, so
// scratch files must not collide -- and must not pile up. The first use
// creates <TempDir>/polyfuse_test_<pid>/; the directory and everything in
// it are removed when the process exits. A CLI run whose fatal-path
// diagnostic (polyfuse-diag.<pid>.json) is expected points
// POLYFUSE_DIAG_DIR into it; an unexpected crash still dumps into the
// working directory, where tools/ci.sh collects it.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

namespace pf::testtmp {

class ProcessDir {
 public:
  ProcessDir()
      : owner_(::getpid()),
        path_(std::string(::testing::TempDir()) + "polyfuse_test_" +
              std::to_string(owner_)) {
    std::filesystem::create_directories(path_);
  }
  ~ProcessDir() {
    // A forked child that exits normally leaves its parent's files alone.
    if (::getpid() != owner_) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ProcessDir(const ProcessDir&) = delete;
  ProcessDir& operator=(const ProcessDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  pid_t owner_;
  std::string path_;
};

inline const std::string& dir() {
  static const ProcessDir d;
  return d.path();
}

/// `name` inside this process's scratch directory.
inline std::string path(const std::string& name) { return dir() + "/" + name; }

}  // namespace pf::testtmp
