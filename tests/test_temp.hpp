// Per-process scratch paths for the files tests write (checkpoints), so
// two test runs at once never share, resume or delete each other's files.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace cgn::test {

/// A directory made by mkdtemp under ::testing::TempDir() on first use and
/// removed, with everything in it, when the process exits.
class ProcessTempDir {
 public:
  ProcessTempDir() {
    std::string tmpl = ::testing::TempDir() + "cgn_test_XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("mkdtemp failed for " + tmpl);
    path_ = tmpl;
  }
  ~ProcessTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// `name` inside this process's scratch directory, with whatever an
/// earlier test of the same process left at that path removed.
inline std::string temp_path(const std::string& name) {
  static const ProcessTempDir dir;
  const std::filesystem::path path = dir.path() / name;
  std::filesystem::remove_all(path);
  return path.string();
}

}  // namespace cgn::test
