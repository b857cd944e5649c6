// Per-test scratch directory for tests that write files.
//
// ::testing::TempDir() is one directory shared by every test process, and
// `ctest -j` runs tests as concurrent processes, so fixed file names there
// let one test overwrite another's checkpoint or context file.  Each test
// gets TempDir()/<suite>.<test>-<pid>/ instead, created on first use and
// removed when the test ends.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace tme_test {

inline std::string scratch_dir_name(const ::testing::TestInfo* info) {
  std::string name = info != nullptr ? std::string(info->test_suite_name()) + "." +
                                           info->name()
                                     : std::string("no-test");
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized test names
  }
  return ::testing::TempDir() + name + "-" + std::to_string(::getpid()) + "/";
}

// Removes the running test's scratch directory when the test ends.
class ScratchDirCleaner : public ::testing::EmptyTestEventListener {
 public:
  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir_name(&info), ec);
  }
};

// The running test's scratch directory (with a trailing '/').
inline std::string scratch_dir() {
  static const bool cleaner_installed = [] {
    ::testing::UnitTest::GetInstance()->listeners().Append(new ScratchDirCleaner);
    return true;
  }();
  (void)cleaner_installed;
  const std::string dir =
      scratch_dir_name(::testing::UnitTest::GetInstance()->current_test_info());
  std::filesystem::create_directories(dir);
  return dir;
}

inline std::string scratch_path(const std::string& name) { return scratch_dir() + name; }

}  // namespace tme_test
